//! The job registry: every piece of campaign-service state that is not a
//! socket.
//!
//! A *job* is a submitted [`CampaignSpec`] plus the scheduler state needed
//! to run it across pull-based workers: the deterministic shard board
//! ([`ShardBoard`]), the record set collected so far (JSONL lines exactly as
//! workers streamed them), the completed-id set, and a running
//! [`Summary`]. The registry owns the correctness invariants:
//!
//! * **fingerprinted ingest** — a record is only accepted when its `id` maps
//!   to the `key` the job's own enumeration assigns to that id (the same
//!   discipline `tats batch --resume` applies to files), so a worker running
//!   a different campaign definition is rejected, never silently merged;
//! * **dedup by scenario id** — re-leased shards re-stream deterministic
//!   records; duplicates are counted and dropped, so a record set can never
//!   contain a scenario twice;
//! * **complete shards only** — a shard can only be marked done when every
//!   scenario id it owns has a record, so `state == "done"` implies the
//!   record set is exactly the campaign enumeration.
//!
//! The registry is clock-free (every method takes `now_ms`) and lock-free
//! (the server wraps it in a mutex); unit tests drive it with a scripted
//! clock.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use tats_engine::{CampaignSpec, ScenarioRecord, Shard, ShardBoard, ShardState, Summary};
use tats_trace::log::{LogEvent, LogFilter, LogLevel};
use tats_trace::spans::{id_hex, id_hex_or_empty, parse_id, SpanEvent, SpanIdGen, SpanKind};
use tats_trace::{jsonl, JsonValue};

use crate::error::ServiceError;

/// Builds one registry log line when `filter` passes it, stamped with the
/// *journaled* clock (`now_ms * 1000` µs, not the wall clock): a line built
/// from a journaled transition (`submit`, `ingest`, `shard done`) is a pure
/// function of the journal, so replay regenerates it byte-identically —
/// the property the `/logs` crash-recovery tests pin.
fn build_log(
    filter: &LogFilter,
    level: LogLevel,
    target: &str,
    message: &str,
    trace_id: u64,
    now_ms: u64,
    attrs: &[(&str, &str)],
) -> Option<String> {
    if !filter.enabled(level, target) {
        return None;
    }
    let mut event = LogEvent::new(level, target, message)
        .at(now_ms.saturating_mul(1_000))
        .trace(trace_id);
    for (key, value) in attrs {
        event = event.attr(key, *value);
    }
    Some(event.to_line())
}

/// The inputs of one job submission: the campaign plus the admission
/// metadata (`client`, `priority`) and trace context that ride along.
///
/// [`Submission::to_fields`] and [`Submission::from_json`] are the one
/// encoding of `{spec, shards, client, priority}`: `tats submit` sends it
/// as the `POST /jobs` body, the server decodes it, and the journal's
/// `submit` event carries the same fields, so replay reconstructs the same
/// admission state. The defaults ([`Submission::new`]) are what an old
/// client that sends neither field gets: everyone shares one `"default"`
/// client at priority 0, which degenerates the fair-admission lease scan
/// to the pre-quota FIFO.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The campaign to run.
    pub spec: CampaignSpec,
    /// Requested shard count (clamped to the scenario count).
    pub shards: usize,
    /// The submitting client's self-reported identity — the unit of
    /// round-robin fairness and pending-shard quotas.
    pub client: String,
    /// Priority tier; higher tiers are always served first.
    pub priority: u64,
    /// Campaign-wide trace id (`0` = untraced).
    pub trace_id: u64,
    /// Unix-µs timestamp anchoring the span clock of a traced submit.
    pub trace_us: u64,
}

impl Submission {
    /// A submission with default admission metadata (client `"default"`,
    /// priority 0) and no tracing.
    pub fn new(spec: CampaignSpec, shards: usize) -> Self {
        Submission {
            spec,
            shards,
            client: "default".to_string(),
            priority: 0,
            trace_id: 0,
            trace_us: 0,
        }
    }

    /// Sets the admission identity: the client name and priority tier.
    #[must_use]
    pub fn for_client(mut self, client: &str, priority: u64) -> Self {
        self.client = client.to_string();
        self.priority = priority;
        self
    }

    /// Turns on distributed tracing for the job.
    #[must_use]
    pub fn traced(mut self, trace_id: u64, trace_us: u64) -> Self {
        self.trace_id = trace_id;
        self.trace_us = trace_us;
        self
    }

    /// The `spec`, `shards`, `client` and `priority` fields of a
    /// `POST /jobs` body and of a journaled `submit` event. The trace
    /// context is not among them: a submitter sends it as the `x-trace-id`
    /// header, and the journal adds its own `trace_id` and `trace_us`.
    pub fn to_fields(&self) -> Vec<(String, JsonValue)> {
        vec![
            ("spec".to_string(), self.spec.to_json()),
            ("shards".to_string(), JsonValue::from(self.shards)),
            ("client".to_string(), JsonValue::from(self.client.as_str())),
            (
                "priority".to_string(),
                JsonValue::from(self.priority as usize),
            ),
        ]
    }

    /// Decodes the fields [`Submission::to_fields`] writes into an
    /// untraced submission. Only `spec` is required: `shards` defaults to
    /// 1, and `client` and `priority` to the [`Submission::new`] defaults,
    /// so bodies from old clients and events from old journals decode as
    /// they ran.
    ///
    /// # Errors
    ///
    /// Names the missing or malformed field.
    pub fn from_json(value: &JsonValue) -> Result<Submission, String> {
        let spec = CampaignSpec::from_json(value.field("spec")?).map_err(|e| e.to_string())?;
        let integer = |name: &str, default: u64| match value.get(name) {
            None => Ok(default),
            Some(number) => number
                .as_u64()
                .ok_or_else(|| format!("'{name}' must be a non-negative integer")),
        };
        let client = match value.get("client") {
            None => "default",
            Some(JsonValue::String(name)) if !name.is_empty() => name.as_str(),
            Some(_) => return Err("'client' must be a non-empty string".to_string()),
        };
        Ok(Submission::new(spec, integer("shards", 1)? as usize)
            .for_client(client, integer("priority", 0)?))
    }
}

/// One submitted campaign and its scheduling state.
#[derive(Debug)]
pub struct Job {
    id: String,
    spec: CampaignSpec,
    fingerprint: String,
    /// `id -> key` of the job's scenario enumeration: the ingest-side
    /// fingerprint check.
    expected: HashMap<u64, String>,
    board: ShardBoard,
    /// Accepted JSONL lines, in arrival order (the streaming read model).
    records: Vec<String>,
    /// Scenario ids with an accepted record.
    completed: BTreeSet<u64>,
    summary: Summary,
    /// The submitting client — the unit the lease scan round-robins over
    /// and the pending-shard quota is charged to.
    client: String,
    /// Priority tier (higher = served first by the lease scan).
    priority: u64,
    created_ms: u64,
    /// Arrival time of the first accepted record — the start of the
    /// progress-rate window. Journaled ingest timestamps reconstruct both
    /// fields on replay, so `/jobs/{id}/progress` is replay-deterministic.
    first_record_ms: Option<u64>,
    /// Arrival time of the most recent accepted record.
    last_record_ms: Option<u64>,
    /// Campaign-wide trace id (`0` = the submitter did not request
    /// tracing; no spans are generated or accepted for the job).
    trace_id: u64,
    /// Unix-µs timestamp of the traced submit — the origin of the job's
    /// synthetic span clock (see [`Job::span_us`]).
    trace_us: u64,
    /// The merged span stream: server transition spans and worker-posted
    /// span batches, JSONL lines in arrival order, deduped by span id.
    spans: Vec<String>,
    /// Span ids already present in `spans` (re-leased shards re-post
    /// deterministically derived ids; duplicates are dropped).
    span_ids: HashSet<u64>,
}

impl Job {
    /// The job's lifecycle state: `queued` (nothing happened yet),
    /// `running`, or `done` (every shard complete).
    fn state(&self, now_ms: u64) -> &'static str {
        if self.board.all_done() {
            "done"
        } else if self.records.is_empty()
            && self.board.done_count() == 0
            && self.board.leased_count(now_ms) == 0
        {
            "queued"
        } else {
            "running"
        }
    }

    /// The scenario ids of one shard that already have records.
    fn completed_in_shard(&self, shard: Shard) -> Vec<u64> {
        self.completed
            .iter()
            .copied()
            .filter(|&id| shard.owns(id))
            .collect()
    }

    /// Shard `index` of the job's board.
    fn shard(&self, index: usize) -> Result<Shard, ServiceError> {
        let count = self.board.count();
        if index >= count {
            return Err(ServiceError::BadRequest(format!(
                "shard {index} out of range (job has {count} shards)"
            )));
        }
        Ok(Shard { index, count })
    }

    /// The number of scenario ids one shard owns in total.
    fn shard_size(&self, shard: Shard) -> usize {
        self.expected.keys().filter(|&&id| shard.owns(id)).count()
    }

    /// The root span id of the job's trace — derivable by every party
    /// (client, server, worker) from the trace id alone, so the tree
    /// connects without shipping the id around.
    fn root_span_id(&self) -> u64 {
        SpanIdGen::derive(self.trace_id, "campaign")
    }

    /// The synthetic span clock: the traced submit's Unix-µs timestamp
    /// advanced by the registry's own (journaled) `now_ms` deltas. Server
    /// transition spans are stamped with this clock instead of a live one,
    /// which makes them pure functions of the journal — a replayed
    /// registry regenerates the span stream byte-identically.
    fn span_us(&self, now_ms: u64) -> u64 {
        self.trace_us
            .saturating_add(now_ms.saturating_sub(self.created_ms).saturating_mul(1_000))
    }

    /// Appends one span to the merged stream unless its id is already
    /// present. Returns the trace-log copy of the line when appended.
    fn push_span(&mut self, span: &SpanEvent) -> Option<String> {
        self.push_span_line(span.span_id, span.to_line())
    }

    /// [`Job::push_span`] for a pre-serialized line (the ingest hot path:
    /// worker batches are stored verbatim, skipping a re-serialization).
    /// Returns a copy for the server's trace-log feed when the line was
    /// appended, `None` for a duplicate span id.
    fn push_span_line(&mut self, span_id: u64, line: String) -> Option<String> {
        if !self.span_ids.insert(span_id) {
            return None;
        }
        self.spans.push(line.clone());
        Some(line)
    }

    /// Appends a zero-duration server transition span (`submit`, `lease`,
    /// `ingest`, `done`) parented to the root span, stamped with the
    /// synthetic clock. The span id is derived from `(trace_id, stream
    /// position, name)`, so replaying the same transitions regenerates the
    /// same ids. No-op for untraced jobs.
    fn transition_span(
        &mut self,
        name: &str,
        now_ms: u64,
        attrs: &[(&str, &str)],
    ) -> Option<String> {
        if self.trace_id == 0 {
            return None;
        }
        let seq = self.spans.len() as u64;
        let span_id = SpanIdGen::derive(
            self.trace_id ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            name,
        );
        let at = self.span_us(now_ms);
        let mut span = SpanEvent::new(
            self.trace_id,
            span_id,
            Some(self.root_span_id()),
            name,
            SpanKind::Server,
            at,
            at,
        );
        for (key, value) in attrs {
            span = span.attr(key, *value);
        }
        self.push_span(&span)
    }

    fn status_json(&self, now_ms: u64) -> JsonValue {
        JsonValue::object(vec![
            ("job".to_string(), JsonValue::from(self.id.as_str())),
            ("state".to_string(), JsonValue::from(self.state(now_ms))),
            (
                "fingerprint".to_string(),
                JsonValue::from(self.fingerprint.as_str()),
            ),
            (
                "scenarios".to_string(),
                JsonValue::from(self.expected.len()),
            ),
            ("client".to_string(), JsonValue::from(self.client.as_str())),
            (
                "priority".to_string(),
                JsonValue::from(self.priority as usize),
            ),
            ("records".to_string(), JsonValue::from(self.records.len())),
            (
                "shards".to_string(),
                JsonValue::object(vec![
                    ("count".to_string(), JsonValue::from(self.board.count())),
                    ("done".to_string(), JsonValue::from(self.board.done_count())),
                    (
                        "leased".to_string(),
                        JsonValue::from(self.board.leased_count(now_ms)),
                    ),
                    (
                        "pending".to_string(),
                        JsonValue::from(self.board.pending_count(now_ms)),
                    ),
                ]),
            ),
            (
                "created_ms".to_string(),
                JsonValue::from(self.created_ms as usize),
            ),
            (
                "trace_id".to_string(),
                JsonValue::from(id_hex_or_empty(self.trace_id).as_str()),
            ),
            ("spans".to_string(), JsonValue::from(self.spans.len())),
        ])
    }

    /// The live-progress view backing `GET /jobs/{id}/progress`: done/total
    /// counts, the record arrival rate over the first→last record window,
    /// and the ETA that rate implies for the remaining scenarios.
    fn progress_json(&self, now_ms: u64) -> JsonValue {
        let done = self.completed.len();
        let total = self.expected.len();
        let rate = match (self.first_record_ms, self.last_record_ms) {
            (Some(first), Some(last)) if last > first => {
                Some(done as f64 / ((last - first) as f64 / 1_000.0))
            }
            _ => None,
        };
        let eta_s = if done >= total {
            Some(0.0)
        } else {
            rate.map(|r| (total - done) as f64 / r)
        };
        let elapsed_ms = self
            .first_record_ms
            .map(|first| now_ms.saturating_sub(first));
        JsonValue::object(vec![
            ("job".to_string(), JsonValue::from(self.id.as_str())),
            ("state".to_string(), JsonValue::from(self.state(now_ms))),
            ("done".to_string(), JsonValue::from(done)),
            ("total".to_string(), JsonValue::from(total)),
            (
                "records_per_sec".to_string(),
                rate.map_or(JsonValue::Null, JsonValue::Number),
            ),
            (
                "eta_s".to_string(),
                eta_s.map_or(JsonValue::Null, JsonValue::Number),
            ),
            (
                "elapsed_ms".to_string(),
                elapsed_ms.map_or(JsonValue::Null, |ms| JsonValue::from(ms as usize)),
            ),
        ])
    }
}

/// Per-worker bookkeeping, reported by `GET /workers`.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerInfo {
    leases: u64,
    records: u64,
    shards_done: u64,
    first_seen_ms: u64,
    last_seen_ms: u64,
}

/// The result of ingesting one record batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Records accepted (new scenario ids).
    pub accepted: usize,
    /// Records dropped because their scenario id was already recorded.
    pub duplicates: usize,
    /// Structurally incomplete lines ignored (trailing partial record of a
    /// crashed sender).
    pub ignored: usize,
    /// Span lines accepted into the job's merged span stream (duplicates
    /// of already-seen span ids are dropped without being counted).
    pub spans: usize,
}

/// The whole service state: jobs, workers and the lease policy.
#[derive(Debug)]
pub struct Registry {
    jobs: BTreeMap<String, Job>,
    next_job: u64,
    workers: BTreeMap<String, WorkerInfo>,
    lease_ttl_ms: u64,
    /// Per-priority-tier round-robin cursor: the client a tier last
    /// granted a shard to. The next scan of that tier starts at the first
    /// client *after* the cursor (sorted by name, wrapping), so no client
    /// waits more than one round behind a saturating neighbour. Updated
    /// only on grants — which are journaled — so replay reproduces every
    /// scheduling decision, and compaction snapshots must carry it.
    lease_cursor: BTreeMap<u64, String>,
    /// Span lines appended to any job since the last
    /// [`Registry::take_trace_lines`] — the server drains this after every
    /// `POST` and appends it to its `--trace-log` file, when it has one.
    /// Not replayable state: a restarted server discards what replay
    /// regenerates here (those lines were already written by the previous
    /// incarnation).
    trace_out: Vec<String>,
    /// Structured log lines emitted since the last
    /// [`Registry::take_log_lines`] — the server drains this into its log
    /// ring (and `--log-file`) after each request. Lines for journaled
    /// transitions are stamped with the journaled clock, so replay
    /// regenerates them byte-identically; lease-grant lines (target
    /// `lease`) are live-only and vanish on restart.
    log_out: Vec<String>,
    /// The level/target filter applied before any log line is built. Off
    /// by default; the server installs its configured filter at bind.
    log_filter: Arc<LogFilter>,
}

impl Registry {
    /// An empty registry whose leases expire after `lease_ttl_ms`.
    pub fn new(lease_ttl_ms: u64) -> Self {
        Registry {
            jobs: BTreeMap::new(),
            next_job: 1,
            workers: BTreeMap::new(),
            lease_ttl_ms: lease_ttl_ms.max(1),
            lease_cursor: BTreeMap::new(),
            trace_out: Vec::new(),
            log_out: Vec::new(),
            log_filter: Arc::new(LogFilter::off()),
        }
    }

    /// Takes every span line appended since the last call — the server's
    /// `--trace-log` feed. Cheap when nothing happened.
    pub fn take_trace_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.trace_out)
    }

    /// Installs the level/target filter registry log lines are checked
    /// against before being built. [`LogFilter::off`] (the default) makes
    /// every logging call site a single branch.
    pub fn set_log_filter(&mut self, filter: Arc<LogFilter>) {
        self.log_filter = filter;
    }

    /// Takes every structured log line emitted since the last call — the
    /// server's log-ring/`--log-file` feed. Cheap when nothing happened.
    pub fn take_log_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.log_out)
    }

    fn job(&self, id: &str) -> Result<&Job, ServiceError> {
        self.jobs
            .get(id)
            .ok_or_else(|| ServiceError::NotFound(format!("job '{id}'")))
    }

    fn job_mut(&mut self, id: &str) -> Result<&mut Job, ServiceError> {
        self.jobs
            .get_mut(id)
            .ok_or_else(|| ServiceError::NotFound(format!("job '{id}'")))
    }

    fn touch_worker(&mut self, worker: &str, now_ms: u64) -> &mut WorkerInfo {
        let info = self
            .workers
            .entry(worker.to_string())
            .or_insert_with(|| WorkerInfo {
                first_seen_ms: now_ms,
                ..WorkerInfo::default()
            });
        info.last_seen_ms = now_ms;
        info
    }

    /// Submits a campaign as a new job split into `submission.shards`
    /// deterministic shards (clamped to the scenario count). Returns the
    /// created job's status object.
    ///
    /// A nonzero `trace_id` (with `trace_us`, the submitter-side Unix-µs
    /// timestamp anchoring the span clock) turns on distributed tracing
    /// for the job: every registry transition appends a span to the job's
    /// merged stream, lease responses carry the trace context to workers,
    /// and ingest accepts worker span batches. `(0, 0)` submits untraced.
    ///
    /// Admission quotas are deliberately *not* checked here: the journal
    /// replays every submit this method accepted, and a quota configured
    /// differently across restarts must never turn a previously-accepted
    /// submit into a refusal. The server enforces quotas *before* calling
    /// this (see [`Registry::client_pending_shards`]); refusals are never
    /// journaled.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadRequest`] for empty campaigns.
    pub fn submit(
        &mut self,
        submission: Submission,
        now_ms: u64,
    ) -> Result<JsonValue, ServiceError> {
        let Submission {
            spec,
            shards,
            client,
            priority,
            trace_id,
            trace_us,
        } = submission;
        let campaign = spec.to_campaign();
        let scenarios = campaign.scenarios();
        if scenarios.is_empty() {
            return Err(ServiceError::BadRequest(
                "the campaign has no scenarios (an axis is empty)".to_string(),
            ));
        }
        let shard_count = shards.clamp(1, scenarios.len());
        // Zero-padded ids keep BTreeMap order == submission order, which is
        // the FIFO the lease scan falls back to within one client.
        let id = format!("j{:06}", self.next_job);
        self.next_job += 1;
        let mut job = Job {
            id: id.clone(),
            fingerprint: spec.fingerprint(),
            expected: scenarios.iter().map(|s| (s.id, s.key())).collect(),
            spec,
            board: ShardBoard::new(shard_count),
            records: Vec::new(),
            completed: BTreeSet::new(),
            summary: Summary::new(),
            client,
            priority,
            created_ms: now_ms,
            first_record_ms: None,
            last_record_ms: None,
            trace_id,
            trace_us: if trace_id == 0 { 0 } else { trace_us },
            spans: Vec::new(),
            span_ids: HashSet::new(),
        };
        let shards_text = shard_count.to_string();
        let trace_line = job.transition_span(
            "submit",
            now_ms,
            &[("job", id.as_str()), ("shards", shards_text.as_str())],
        );
        let scenarios_text = job.expected.len().to_string();
        let log_line = build_log(
            &self.log_filter,
            LogLevel::Info,
            "registry",
            "job submitted",
            trace_id,
            now_ms,
            &[
                ("client", job.client.as_str()),
                ("job", id.as_str()),
                ("scenarios", scenarios_text.as_str()),
                ("shards", shards_text.as_str()),
            ],
        );
        let status = job.status_json(now_ms);
        self.jobs.insert(id, job);
        self.trace_out.extend(trace_line);
        self.log_out.extend(log_line);
        Ok(status)
    }

    /// Shards of `client`'s jobs that are not yet done — the quantity its
    /// pending-shard quota is charged against. Leased shards count: the
    /// quota bounds a client's *in-flight backlog*, and a leased shard is
    /// still backlog until its records land and it completes.
    pub fn client_pending_shards(&self, client: &str) -> usize {
        self.jobs
            .values()
            .filter(|job| job.client == client)
            .map(|job| job.board.count() - job.board.done_count())
            .sum()
    }

    /// The order the lease scan visits jobs in: priority tiers from
    /// highest to lowest; within a tier, round-robin across clients
    /// starting just past the tier's cursor (the client last granted a
    /// shard); within a client, FIFO by job id. With a single client this
    /// degenerates to the pre-admission FIFO scan, so old journals replay
    /// unchanged. Pure function of job state + cursor, both replayed, so
    /// the order is replay-deterministic.
    fn lease_order(&self) -> Vec<String> {
        let mut tiers: BTreeMap<u64, BTreeMap<&str, Vec<&str>>> = BTreeMap::new();
        for job in self.jobs.values() {
            if job.board.all_done() {
                continue;
            }
            tiers
                .entry(job.priority)
                .or_default()
                .entry(job.client.as_str())
                .or_default()
                .push(job.id.as_str());
        }
        let mut order = Vec::new();
        for (priority, clients) in tiers.iter().rev() {
            let names: Vec<&str> = clients.keys().copied().collect();
            let start = self
                .lease_cursor
                .get(priority)
                .and_then(|last| names.iter().position(|name| *name > last.as_str()))
                .unwrap_or(0);
            for offset in 0..names.len() {
                let name = names[(start + offset) % names.len()];
                order.extend(clients[name].iter().map(|id| (*id).to_string()));
            }
        }
        order
    }

    /// Leases the next available shard to `worker`. Job order is the fair
    /// scan of `Registry::lease_order` (priority tiers, then round-robin
    /// across clients); within a job the board hands out the
    /// lowest-indexed pending-or-expired shard. The response is
    /// self-contained — spec, fingerprint, shard, completed ids — so a
    /// worker needs no other state to run (and resume) the shard.
    pub fn lease(&mut self, worker: &str, now_ms: u64) -> JsonValue {
        let ttl = self.lease_ttl_ms;
        let filter = Arc::clone(&self.log_filter);
        self.touch_worker(worker, now_ms);
        let mut granted: Option<JsonValue> = None;
        let mut grant_cursor: Option<(u64, String)> = None;
        let mut trace_line: Option<String> = None;
        let mut log_line: Option<String> = None;
        for id in self.lease_order() {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            if let Some(shard) = job.board.lease(worker, now_ms, ttl) {
                let completed: Vec<JsonValue> = job
                    .completed_in_shard(shard)
                    .into_iter()
                    .map(|id| JsonValue::from(id as usize))
                    .collect();
                let mut fields = vec![
                    ("job".to_string(), JsonValue::from(job.id.as_str())),
                    (
                        "shard".to_string(),
                        JsonValue::from(shard.to_string().as_str()),
                    ),
                    ("spec".to_string(), job.spec.to_json()),
                    (
                        "fingerprint".to_string(),
                        JsonValue::from(job.fingerprint.as_str()),
                    ),
                    ("completed_ids".to_string(), JsonValue::Array(completed)),
                    ("ttl_ms".to_string(), JsonValue::from(ttl as usize)),
                ];
                if job.trace_id != 0 {
                    // The trace context rides the lease to the worker: the
                    // worker parents its shard span to the root span and
                    // stamps every span with the trace id.
                    fields.push((
                        "trace_id".to_string(),
                        JsonValue::from(id_hex(job.trace_id).as_str()),
                    ));
                    fields.push((
                        "root_span".to_string(),
                        JsonValue::from(id_hex(job.root_span_id()).as_str()),
                    ));
                }
                let shard_text = shard.index.to_string();
                trace_line = job.transition_span(
                    "lease",
                    now_ms,
                    &[("shard", shard_text.as_str()), ("peer", worker)],
                );
                // Lease-grant log lines use the `lease` target, distinct
                // from `registry` — the crash-recovery tests pin only
                // `registry`-target lines across a restart, and replayed
                // grants may re-emit these without breaking them.
                log_line = build_log(
                    &filter,
                    LogLevel::Debug,
                    "lease",
                    "shard leased",
                    job.trace_id,
                    now_ms,
                    &[
                        ("job", job.id.as_str()),
                        ("shard", shard_text.as_str()),
                        ("worker", worker),
                    ],
                );
                granted = Some(JsonValue::object(vec![(
                    "lease".to_string(),
                    JsonValue::object(fields),
                )]));
                grant_cursor = Some((job.priority, job.client.clone()));
                break;
            }
        }
        if let Some((priority, client)) = grant_cursor {
            self.lease_cursor.insert(priority, client);
        }
        self.trace_out.extend(trace_line);
        self.log_out.extend(log_line);
        match granted {
            Some(response) => {
                // Count leases actually granted, not idle polls: the
                // `/workers` statistic means "shards handed to this worker".
                self.touch_worker(worker, now_ms).leases += 1;
                response
            }
            None => JsonValue::object(vec![
                ("idle".to_string(), JsonValue::from(true)),
                ("drained".to_string(), JsonValue::from(self.drained())),
            ]),
        }
    }

    /// Returns `true` when no job has unfinished work (vacuously true for an
    /// empty registry): the signal that lets batch-mode workers exit.
    pub fn drained(&self) -> bool {
        self.jobs.values().all(|job| job.board.all_done())
    }

    /// Ingests a batch of JSONL record lines streamed by `worker` for one
    /// shard, renewing (or re-acquiring) its lease as a side effect.
    /// Duplicate scenario ids are dropped, structurally incomplete trailing
    /// lines are ignored, and every accepted record must pass the
    /// fingerprint check (`id` maps to the key this job's enumeration
    /// assigns).
    ///
    /// # Errors
    ///
    /// * [`ServiceError::NotFound`] — unknown job;
    /// * [`ServiceError::BadRequest`] — shard index out of range, malformed
    ///   record, or a record that belongs to a different campaign/shard;
    /// * [`ServiceError::Conflict`] — the shard is validly leased to a
    ///   different worker (the caller must stop streaming into it).
    pub fn ingest(
        &mut self,
        job_id: &str,
        shard_index: usize,
        worker: &str,
        body: &str,
        now_ms: u64,
    ) -> Result<IngestReport, ServiceError> {
        let ttl = self.lease_ttl_ms;
        let filter = Arc::clone(&self.log_filter);
        self.touch_worker(worker, now_ms);
        let job = self.job_mut(job_id)?;
        let shard = job.shard(shard_index)?;
        // Validate the whole batch before mutating anything — including the
        // lease renewal: an ingest that errors must not leave records
        // half-applied or the lease extended (the journal only records
        // *successful* ingests, so any mutation on an error path would
        // silently diverge from replay; and a worker streaming garbage has
        // not earned a renewal anyway).
        let mut report = IngestReport {
            accepted: 0,
            duplicates: 0,
            ignored: 0,
            spans: 0,
        };
        let mut accepted: Vec<(ScenarioRecord, &str)> = Vec::new();
        let mut span_batch: Vec<(u64, &str)> = Vec::new();
        for line in body.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if !jsonl::is_complete_record(line) {
                report.ignored += 1;
                continue;
            }
            // Workers piggyback completed span batches on record posts;
            // span lines are validated with the same all-or-nothing
            // discipline as records. Worker-built lines are in the exact
            // canonical layout, so the allocation-free scan covers them;
            // anything else that still looks like a span goes through the
            // full parser for a field-naming error or acceptance.
            let span_ids = match SpanEvent::canonical_ids(line) {
                Some(ids) => Some(ids),
                None if SpanEvent::is_span_line(line) => Some(
                    SpanEvent::parse_line(line)
                        .map(|span| (span.trace_id, span.span_id))
                        .map_err(|e| {
                            ServiceError::BadRequest(format!("unparsable span line: {e}"))
                        })?,
                ),
                None => None,
            };
            if let Some((trace_id, span_id)) = span_ids {
                if job.trace_id == 0 || trace_id != job.trace_id {
                    return Err(ServiceError::BadRequest(format!(
                        "span line for trace '{}' but job {job_id} traces '{}'",
                        id_hex(trace_id),
                        id_hex_or_empty(job.trace_id)
                    )));
                }
                // The verbatim line is what gets stored: the scan above is
                // validation only, so the hot path skips a re-serialization.
                span_batch.push((span_id, line));
                continue;
            }
            let value = JsonValue::parse(line)
                .map_err(|e| ServiceError::BadRequest(format!("unparsable record line: {e}")))?;
            let record = ScenarioRecord::from_json(&value)
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
            match job.expected.get(&record.id) {
                Some(expected_key) if *expected_key == record.key => {}
                Some(expected_key) => {
                    return Err(ServiceError::BadRequest(format!(
                        "record id {} is '{}' but this campaign enumerates it as '{}' \
                         (fingerprint mismatch — the worker runs a different campaign)",
                        record.id, record.key, expected_key
                    )));
                }
                None => {
                    return Err(ServiceError::BadRequest(format!(
                        "record id {} is outside this campaign (0..{})",
                        record.id,
                        job.expected.len()
                    )));
                }
            }
            if !shard.owns(record.id) {
                return Err(ServiceError::BadRequest(format!(
                    "record id {} does not belong to shard {shard}",
                    record.id
                )));
            }
            accepted.push((record, line));
        }
        if !job.board.renew(shard_index, worker, now_ms, ttl) {
            return Err(ServiceError::Conflict(format!(
                "shard {shard_index} of {job_id} is leased to another worker"
            )));
        }
        for (record, line) in accepted {
            if job.completed.insert(record.id) {
                job.summary.record(&record);
                job.records.push(line.to_string());
                report.accepted += 1;
            } else {
                report.duplicates += 1;
            }
        }
        if report.accepted > 0 {
            // `now_ms` is the journaled ingest timestamp, so replay rebuilds
            // the same progress window a live server saw.
            job.first_record_ms.get_or_insert(now_ms);
            job.last_record_ms = Some(now_ms);
        }
        let shard_text = shard_index.to_string();
        let mut new_lines: Vec<String> = job
            .transition_span(
                "ingest",
                now_ms,
                &[("shard", shard_text.as_str()), ("peer", worker)],
            )
            .into_iter()
            .collect();
        for (span_id, line) in span_batch {
            if let Some(copy) = job.push_span_line(span_id, line.to_string()) {
                report.spans += 1;
                new_lines.push(copy);
            }
        }
        // `accepted`/`duplicates` replay identically (the journal records
        // the successful body verbatim), so this line is replay-stable.
        let accepted_text = report.accepted.to_string();
        let duplicates_text = report.duplicates.to_string();
        let log_line = build_log(
            &filter,
            LogLevel::Debug,
            "registry",
            "records ingested",
            job.trace_id,
            now_ms,
            &[
                ("accepted", accepted_text.as_str()),
                ("duplicates", duplicates_text.as_str()),
                ("job", job_id),
                ("shard", shard_text.as_str()),
                ("worker", worker),
            ],
        );
        self.touch_worker(worker, now_ms).records += report.accepted as u64;
        self.trace_out.extend(new_lines);
        self.log_out.extend(log_line);
        Ok(report)
    }

    /// Marks a shard done on behalf of `worker`.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::NotFound`] — unknown job;
    /// * [`ServiceError::BadRequest`] — shard index out of range;
    /// * [`ServiceError::Conflict`] — records are missing for ids the shard
    ///   owns, or the shard is validly leased to a different worker.
    pub fn shard_done(
        &mut self,
        job_id: &str,
        shard_index: usize,
        worker: &str,
        now_ms: u64,
    ) -> Result<JsonValue, ServiceError> {
        let filter = Arc::clone(&self.log_filter);
        self.touch_worker(worker, now_ms);
        let job = self.job_mut(job_id)?;
        let shard = job.shard(shard_index)?;
        let have = job.completed_in_shard(shard).len();
        let want = job.shard_size(shard);
        if have != want {
            return Err(ServiceError::Conflict(format!(
                "shard {shard} has {have} of {want} records; refusing to mark it done"
            )));
        }
        if !job.board.complete(shard_index, worker, now_ms) {
            return Err(ServiceError::Conflict(format!(
                "shard {shard_index} of {job_id} is leased to another worker"
            )));
        }
        let shard_text = shard_index.to_string();
        let mut new_lines: Vec<String> = job
            .transition_span(
                "done",
                now_ms,
                &[("shard", shard_text.as_str()), ("peer", worker)],
            )
            .into_iter()
            .collect();
        if job.board.all_done() && job.trace_id != 0 {
            // The final shard closes the campaign: materialise the root
            // span covering submit → completion. Stamped with the synthetic
            // clock, so replay regenerates it byte-identically.
            let root = SpanEvent::new(
                job.trace_id,
                job.root_span_id(),
                None,
                "campaign",
                SpanKind::Client,
                job.trace_us,
                job.span_us(now_ms),
            )
            .attr("job", job.id.as_str());
            new_lines.extend(job.push_span(&root));
        }
        let mut log_lines: Vec<String> = build_log(
            &filter,
            LogLevel::Info,
            "registry",
            "shard done",
            job.trace_id,
            now_ms,
            &[
                ("job", job_id),
                ("shard", shard_text.as_str()),
                ("worker", worker),
            ],
        )
        .into_iter()
        .collect();
        if job.board.all_done() {
            let records_text = job.records.len().to_string();
            log_lines.extend(build_log(
                &filter,
                LogLevel::Info,
                "registry",
                "job done",
                job.trace_id,
                now_ms,
                &[("job", job_id), ("records", records_text.as_str())],
            ));
        }
        let status = job.status_json(now_ms);
        self.touch_worker(worker, now_ms).shards_done += 1;
        self.trace_out.extend(new_lines);
        self.log_out.extend(log_lines);
        Ok(status)
    }

    /// One job's status object.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NotFound`] for unknown jobs.
    pub fn job_status(&self, job_id: &str, now_ms: u64) -> Result<JsonValue, ServiceError> {
        Ok(self.job(job_id)?.status_json(now_ms))
    }

    /// One job's live-progress object (`GET /jobs/{id}/progress`): done and
    /// total scenario counts, records/sec over the ingest window, and the
    /// ETA those imply. Rate and ETA are `null` until the window is wide
    /// enough to measure (two distinct ingest timestamps).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NotFound`] for unknown jobs.
    pub fn progress(&self, job_id: &str, now_ms: u64) -> Result<JsonValue, ServiceError> {
        Ok(self.job(job_id)?.progress_json(now_ms))
    }

    /// Every job id, oldest first.
    pub fn job_ids(&self) -> impl Iterator<Item = &str> {
        self.jobs.keys().map(String::as_str)
    }

    /// Status of every job, oldest first.
    pub fn jobs_status(&self, now_ms: u64) -> JsonValue {
        JsonValue::object(vec![(
            "jobs".to_string(),
            JsonValue::Array(
                self.jobs
                    .values()
                    .map(|job| job.status_json(now_ms))
                    .collect(),
            ),
        )])
    }

    /// The job's JSONL record stream starting at record index `from`,
    /// joined with newlines (empty when `from` is past the end), plus the
    /// next index to poll from.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NotFound`] for unknown jobs.
    pub fn records_from(&self, job_id: &str, from: usize) -> Result<(String, usize), ServiceError> {
        Ok(jsonl::page(&self.job(job_id)?.records, 0, from))
    }

    /// The job's merged span stream — server transition spans and worker
    /// span batches, deduped by span id — starting at span index `from`,
    /// joined with newlines, plus the next index to poll from. Mirrors
    /// [`Registry::records_from`] (`GET /jobs/{id}/spans?from=k`). Empty
    /// for untraced jobs.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NotFound`] for unknown jobs.
    pub fn spans_from(&self, job_id: &str, from: usize) -> Result<(String, usize), ServiceError> {
        Ok(jsonl::page(&self.job(job_id)?.spans, 0, from))
    }

    /// The job's aggregated summary (partial while the job runs).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::NotFound`] for unknown jobs.
    pub fn summary(&self, job_id: &str, now_ms: u64) -> Result<JsonValue, ServiceError> {
        let job = self.job(job_id)?;
        Ok(JsonValue::object(vec![
            ("job".to_string(), JsonValue::from(job.id.as_str())),
            ("state".to_string(), JsonValue::from(job.state(now_ms))),
            ("summary".to_string(), job.summary.to_json()),
        ]))
    }

    /// Converts every live lease of every job back to pending, returning how
    /// many were reset. A restarted server calls this once after journal
    /// replay: the replayed deadlines live in the dead process's monotonic
    /// clock and cannot be compared against the new epoch, so the shards
    /// simply become leasable again. Still-live workers re-acquire their
    /// shard on their next record batch (ingest renews pending shards) and
    /// dedup absorbs any re-streams.
    pub fn reset_leases(&mut self) -> usize {
        self.jobs
            .values_mut()
            .map(|job| job.board.reset_leases())
            .sum()
    }

    /// The replay-test oracle: [`Registry::dump`] plus each job's running
    /// `summary`, which [`Registry::restore`] re-folds from the records
    /// rather than storing. Deterministic and clock-free; worker
    /// statistics stay out like in `dump` — idle lease polls touch them on
    /// a live server but are not journaled, so they are exactly the part
    /// of the registry that replay does not reconstruct. The journal tests
    /// pin `snapshot(replay(journal)) == snapshot(live)` on this value.
    pub fn snapshot(&self) -> JsonValue {
        self.state_json(true)
    }

    /// Serialises the full replayable state for a compaction snapshot:
    /// everything [`Registry::restore`] needs to reconstruct this registry
    /// exactly — jobs with specs, shard boards (live leases included),
    /// record streams, completed ids, span streams, trace context,
    /// admission metadata, the job counter and the lease cursor. Worker
    /// statistics stay out: they are not replayable state. Trace ids are
    /// stored as hex strings — JSON numbers lose u64 precision past 2^53.
    pub fn dump(&self) -> JsonValue {
        self.state_json(false)
    }

    /// The one walk over the registry state behind [`Registry::dump`] and
    /// [`Registry::snapshot`]; `summaries` adds each job's summary.
    fn state_json(&self, summaries: bool) -> JsonValue {
        let jobs = self
            .jobs
            .values()
            .map(|job| {
                let shards: Vec<JsonValue> = (0..job.board.count())
                    .map(|index| match job.board.state(index) {
                        ShardState::Pending => JsonValue::from("pending"),
                        ShardState::Done => JsonValue::from("done"),
                        ShardState::Leased {
                            worker,
                            deadline_ms,
                        } => JsonValue::object(vec![
                            ("worker".to_string(), JsonValue::from(worker.as_str())),
                            (
                                "deadline_ms".to_string(),
                                JsonValue::from(*deadline_ms as usize),
                            ),
                        ]),
                    })
                    .collect();
                let mut fields = vec![
                    ("job".to_string(), JsonValue::from(job.id.as_str())),
                    ("spec".to_string(), job.spec.to_json()),
                    (
                        "fingerprint".to_string(),
                        JsonValue::from(job.fingerprint.as_str()),
                    ),
                    ("client".to_string(), JsonValue::from(job.client.as_str())),
                    (
                        "priority".to_string(),
                        JsonValue::from(job.priority as usize),
                    ),
                    (
                        "created_ms".to_string(),
                        JsonValue::from(job.created_ms as usize),
                    ),
                    (
                        "first_record_ms".to_string(),
                        job.first_record_ms
                            .map_or(JsonValue::Null, |ms| JsonValue::from(ms as usize)),
                    ),
                    (
                        "last_record_ms".to_string(),
                        job.last_record_ms
                            .map_or(JsonValue::Null, |ms| JsonValue::from(ms as usize)),
                    ),
                    (
                        "trace_id".to_string(),
                        JsonValue::from(id_hex_or_empty(job.trace_id).as_str()),
                    ),
                    (
                        "trace_us".to_string(),
                        JsonValue::from(job.trace_us as usize),
                    ),
                    ("shards".to_string(), JsonValue::Array(shards)),
                    (
                        "completed".to_string(),
                        JsonValue::Array(
                            job.completed
                                .iter()
                                .map(|id| JsonValue::from(*id as usize))
                                .collect(),
                        ),
                    ),
                    (
                        "records".to_string(),
                        JsonValue::Array(
                            job.records
                                .iter()
                                .map(|line| JsonValue::from(line.as_str()))
                                .collect(),
                        ),
                    ),
                    (
                        "spans".to_string(),
                        JsonValue::Array(
                            job.spans
                                .iter()
                                .map(|line| JsonValue::from(line.as_str()))
                                .collect(),
                        ),
                    ),
                ];
                if summaries {
                    fields.push(("summary".to_string(), job.summary.to_json()));
                }
                JsonValue::object(fields)
            })
            .collect();
        JsonValue::object(vec![
            (
                "next_job".to_string(),
                JsonValue::from(self.next_job as usize),
            ),
            (
                "lease_cursor".to_string(),
                JsonValue::object(self.lease_cursor.iter().map(|(priority, client)| {
                    (priority.to_string(), JsonValue::from(client.as_str()))
                })),
            ),
            ("jobs".to_string(), JsonValue::Array(jobs)),
        ])
    }

    /// Replaces this registry's replayable state with a [`Registry::dump`]
    /// snapshot — the journal-replay fast-forward. Derived state the dump
    /// leaves implicit is rebuilt from first principles: the `id -> key`
    /// fingerprint map from the spec's own enumeration, the summary by
    /// re-folding the record lines, span-id dedup sets by re-parsing the
    /// span lines. Returns `(jobs, records)` restored, for the replay
    /// report. Observability plumbing (filters, buffers, pending output
    /// lines) and worker statistics are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for a structurally invalid
    /// snapshot, including a stored fingerprint that does not match the
    /// stored spec (a corrupted or hand-edited snapshot fails loudly at
    /// boot instead of silently diverging).
    pub fn restore(&mut self, state: &JsonValue) -> Result<(usize, usize), ServiceError> {
        let bad = |message: String| ServiceError::Protocol(format!("snapshot: {message}"));
        let next_job = state.field_u64("next_job").map_err(bad)?;
        let mut lease_cursor = BTreeMap::new();
        if let Some(JsonValue::Object(entries)) = state.get("lease_cursor") {
            for (priority, client) in entries {
                let priority = priority
                    .parse::<u64>()
                    .map_err(|_| bad(format!("non-numeric cursor tier '{priority}'")))?;
                let client = client
                    .as_str()
                    .ok_or_else(|| bad("non-string cursor client".to_string()))?;
                lease_cursor.insert(priority, client.to_string());
            }
        }
        let mut jobs = BTreeMap::new();
        let mut records_restored = 0;
        for entry in state.field_array("jobs").map_err(bad)? {
            let id = entry.field_str("job").map_err(bad)?.to_string();
            let bad = |message: String| bad(format!("job {id}: {message}"));
            let spec = CampaignSpec::from_json(entry.field("spec").map_err(bad)?)
                .map_err(|e| bad(format!("spec: {e}")))?;
            let fingerprint = entry.field_str("fingerprint").map_err(bad)?.to_string();
            if fingerprint != spec.fingerprint() {
                return Err(bad("fingerprint does not match its spec".to_string()));
            }
            let expected: HashMap<u64, String> = spec
                .to_campaign()
                .scenarios()
                .iter()
                .map(|s| (s.id, s.key()))
                .collect();
            let states = entry
                .field_array("shards")
                .map_err(bad)?
                .iter()
                .map(|shard| match shard {
                    JsonValue::String(s) if s == "pending" => Ok(ShardState::Pending),
                    JsonValue::String(s) if s == "done" => Ok(ShardState::Done),
                    leased => Ok(ShardState::Leased {
                        worker: leased.field_str("worker")?.to_string(),
                        deadline_ms: leased.field_u64("deadline_ms")?,
                    }),
                })
                .collect::<Result<Vec<ShardState>, String>>()
                .map_err(bad)?;
            let completed = entry
                .field_array("completed")
                .map_err(bad)?
                .iter()
                .map(|value| {
                    value
                        .as_u64()
                        .ok_or_else(|| bad("non-integer completed id".to_string()))
                })
                .collect::<Result<BTreeSet<u64>, ServiceError>>()?;
            let mut summary = Summary::new();
            let mut records = Vec::new();
            let mut record_ids = BTreeSet::new();
            for line in entry.field_array("records").map_err(bad)? {
                let line = line
                    .as_str()
                    .ok_or_else(|| bad("non-string record line".to_string()))?;
                let value = JsonValue::parse(line).map_err(|e| bad(format!("record line: {e}")))?;
                let record = ScenarioRecord::from_json(&value)
                    .map_err(|e| bad(format!("record line: {e}")))?;
                if !record_ids.insert(record.id) {
                    return Err(bad(format!("record id {} repeats", record.id)));
                }
                summary.record(&record);
                records.push(line.to_string());
            }
            // Ingest dedups on `completed`: a set that disagrees with the
            // records would let a re-streamed record in twice.
            if completed != record_ids {
                return Err(bad("completed ids do not match its record ids".to_string()));
            }
            let mut spans = Vec::new();
            let mut span_ids = HashSet::new();
            for line in entry.field_array("spans").map_err(bad)? {
                let line = line
                    .as_str()
                    .ok_or_else(|| bad("non-string span line".to_string()))?;
                let (_, span_id) = match SpanEvent::canonical_ids(line) {
                    Some(ids) => ids,
                    None => SpanEvent::parse_line(line)
                        .map(|span| (span.trace_id, span.span_id))
                        .map_err(|e| bad(format!("span line: {e}")))?,
                };
                span_ids.insert(span_id);
                spans.push(line.to_string());
            }
            records_restored += records.len();
            let job = Job {
                id: id.clone(),
                spec,
                fingerprint,
                expected,
                board: ShardBoard::from_states(states),
                records,
                completed,
                summary,
                client: entry.field_str("client").map_err(bad)?.to_string(),
                priority: entry.field_u64("priority").map_err(bad)?,
                created_ms: entry.field_u64("created_ms").map_err(bad)?,
                first_record_ms: entry.get("first_record_ms").and_then(JsonValue::as_u64),
                last_record_ms: entry.get("last_record_ms").and_then(JsonValue::as_u64),
                trace_id: entry
                    .get("trace_id")
                    .and_then(JsonValue::as_str)
                    .and_then(parse_id)
                    .unwrap_or(0),
                trace_us: entry
                    .get("trace_us")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                spans,
                span_ids,
            };
            jobs.insert(id, job);
        }
        let jobs_restored = jobs.len();
        self.jobs = jobs;
        self.next_job = next_job;
        self.lease_cursor = lease_cursor;
        Ok((jobs_restored, records_restored))
    }

    /// Everything known about the workers that have talked to this server,
    /// including how long ago each was last seen, its lifetime record rate
    /// (records posted over the first-seen → last-seen window; `null` until
    /// the window is wide enough to measure), and a derived `status`:
    /// `stale` when the worker has not been seen for longer than the lease
    /// TTL (it would have polled or renewed by now — presumed dead),
    /// `active` when it holds at least one unexpired lease, `idle`
    /// otherwise (alive but nothing to do — a drained fleet, not a dead
    /// one).
    pub fn workers_status(&self, now_ms: u64) -> JsonValue {
        JsonValue::object(vec![(
            "workers".to_string(),
            JsonValue::Array(
                self.workers
                    .iter()
                    .map(|(name, info)| {
                        let records_per_sec = if info.last_seen_ms > info.first_seen_ms {
                            JsonValue::Number(
                                info.records as f64
                                    / ((info.last_seen_ms - info.first_seen_ms) as f64 / 1_000.0),
                            )
                        } else {
                            JsonValue::Null
                        };
                        let holds_lease = self.jobs.values().any(|job| {
                            (0..job.board.count()).any(|index| match job.board.state(index) {
                                ShardState::Leased {
                                    worker,
                                    deadline_ms,
                                } => worker == name && *deadline_ms > now_ms,
                                _ => false,
                            })
                        });
                        let status = if now_ms.saturating_sub(info.last_seen_ms) > self.lease_ttl_ms
                        {
                            "stale"
                        } else if holds_lease {
                            "active"
                        } else {
                            "idle"
                        };
                        JsonValue::object(vec![
                            ("name".to_string(), JsonValue::from(name.as_str())),
                            ("status".to_string(), JsonValue::from(status)),
                            ("leases".to_string(), JsonValue::from(info.leases as usize)),
                            (
                                "records".to_string(),
                                JsonValue::from(info.records as usize),
                            ),
                            (
                                "shards_done".to_string(),
                                JsonValue::from(info.shards_done as usize),
                            ),
                            (
                                "first_seen_ms".to_string(),
                                JsonValue::from(info.first_seen_ms as usize),
                            ),
                            (
                                "last_seen_ms".to_string(),
                                JsonValue::from(info.last_seen_ms as usize),
                            ),
                            (
                                "last_seen_age_ms".to_string(),
                                JsonValue::from(now_ms.saturating_sub(info.last_seen_ms) as usize),
                            ),
                            ("records_per_sec".to_string(), records_per_sec),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_core::Policy;
    use tats_engine::Effort;
    use tats_taskgraph::Benchmark;

    const TTL: u64 = 100;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            benchmarks: vec![Benchmark::Bm1],
            flows: vec![tats_engine::FlowKind::Platform],
            policies: vec![Policy::Baseline, Policy::ThermalAware],
            solvers: vec![None],
            seeds: vec![0, 1],
            grid_resolution: (16, 16),
            effort: Effort::Fast,
        }
    }

    /// JSONL lines of the in-process run of the spec's campaign — the
    /// deterministic ground truth workers would stream.
    fn reference_lines(spec: &CampaignSpec) -> Vec<String> {
        let campaign = spec.to_campaign();
        let scenarios = campaign.scenarios();
        tats_engine::Executor::new(1)
            .run(&campaign, &scenarios, &Default::default(), |_| Ok(()))
            .expect("run")
            .records
            .iter()
            .map(|r| r.to_json().to_json())
            .collect()
    }

    #[test]
    fn submit_lease_ingest_done_lifecycle() {
        let mut registry = Registry::new(TTL);
        let status = registry
            .submit(Submission::new(tiny_spec(), 2), 0)
            .expect("submit");
        let job = status.get("job").and_then(JsonValue::as_str).unwrap();
        assert_eq!(job, "j000001");
        assert_eq!(
            status.get("state").and_then(JsonValue::as_str),
            Some("queued")
        );
        assert_eq!(status.get("scenarios").and_then(JsonValue::as_u64), Some(4));
        assert!(!registry.drained());

        let lease = registry.lease("w1", 10);
        let lease = lease.get("lease").expect("a shard is available");
        assert_eq!(lease.get("job").and_then(JsonValue::as_str), Some(job));
        assert_eq!(lease.get("shard").and_then(JsonValue::as_str), Some("0/2"));
        assert_eq!(
            lease.get("fingerprint").and_then(JsonValue::as_str),
            Some(tiny_spec().fingerprint().as_str())
        );

        let lines = reference_lines(&tiny_spec());
        // Shard 0/2 owns ids 0 and 2.
        let body = format!("{}\n{}\n", lines[0], lines[2]);
        let report = registry.ingest(job, 0, "w1", &body, 20).expect("ingest");
        assert_eq!(
            report,
            IngestReport {
                accepted: 2,
                duplicates: 0,
                ignored: 0,
                spans: 0
            }
        );
        registry.shard_done(job, 0, "w1", 30).expect("done");

        // Second shard by another worker.
        let lease = registry.lease("w2", 40);
        assert_eq!(
            lease
                .get("lease")
                .and_then(|l| l.get("shard"))
                .and_then(JsonValue::as_str),
            Some("1/2")
        );
        let body = format!("{}\n{}\n", lines[1], lines[3]);
        registry.ingest(job, 1, "w2", &body, 50).expect("ingest");
        let status = registry.shard_done(job, 1, "w2", 60).expect("done");
        assert_eq!(
            status.get("state").and_then(JsonValue::as_str),
            Some("done")
        );
        assert!(registry.drained());
        assert!(registry.lease("w3", 70).get("lease").is_none());

        // The streamed record set equals the in-process run.
        let (all, next) = registry.records_from(job, 0).expect("records");
        assert_eq!(next, 4);
        let mut got: Vec<&str> = all.lines().collect();
        got.sort_by_key(|line| jsonl::line_id(line));
        let want: Vec<&str> = lines.iter().map(String::as_str).collect();
        assert_eq!(got, want);
        // Incremental polling picks up where it left off.
        let (tail, next_after) = registry.records_from(job, next).expect("tail");
        assert!(tail.is_empty());
        assert_eq!(next_after, next);

        let summary = registry.summary(job, 70).expect("summary");
        let text = summary.to_json();
        assert!(text.contains("\"scenarios\":4"), "{text}");

        let workers = registry.workers_status(80).to_json();
        assert!(workers.contains("\"name\":\"w1\""), "{workers}");
        assert!(workers.contains("\"name\":\"w2\""), "{workers}");
    }

    #[test]
    fn progress_reports_rate_and_eta_from_ingest_timestamps() {
        let mut registry = Registry::new(TTL);
        let job = registry
            .submit(Submission::new(tiny_spec(), 1), 0)
            .expect("submit")
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();

        // No records yet: counts only, rate and ETA unknown.
        let progress = registry.progress(&job, 5).expect("progress");
        assert_eq!(progress.get("done").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(progress.get("total").and_then(JsonValue::as_u64), Some(4));
        assert!(matches!(
            progress.get("records_per_sec"),
            Some(JsonValue::Null)
        ));
        assert!(matches!(progress.get("eta_s"), Some(JsonValue::Null)));

        registry.lease("w1", 10);
        let lines = reference_lines(&tiny_spec());
        registry
            .ingest(&job, 0, "w1", &lines[0], 1_000)
            .expect("first");
        // One ingest timestamp: rate is still unmeasurable.
        let progress = registry.progress(&job, 1_000).expect("progress");
        assert_eq!(progress.get("done").and_then(JsonValue::as_u64), Some(1));
        assert!(matches!(
            progress.get("records_per_sec"),
            Some(JsonValue::Null)
        ));

        let body = format!("{}\n{}\n", lines[1], lines[2]);
        registry.ingest(&job, 0, "w1", &body, 2_000).expect("more");
        // 3 records over a 1 s window: 3/s, 1 remaining -> ETA 1/3 s.
        let progress = registry.progress(&job, 2_000).expect("progress");
        assert_eq!(progress.get("done").and_then(JsonValue::as_u64), Some(3));
        let rate = progress
            .get("records_per_sec")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!((rate - 3.0).abs() < 1e-9, "{rate}");
        let eta = progress.get("eta_s").and_then(JsonValue::as_f64).unwrap();
        assert!((eta - 1.0 / 3.0).abs() < 1e-9, "{eta}");

        registry
            .ingest(&job, 0, "w1", &lines[3], 3_000)
            .expect("last");
        registry.shard_done(&job, 0, "w1", 3_000).expect("done");
        let progress = registry.progress(&job, 3_500).expect("progress");
        assert_eq!(
            progress.get("state").and_then(JsonValue::as_str),
            Some("done")
        );
        let eta = progress.get("eta_s").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(eta, 0.0);

        // The enriched workers view: age relative to `now`, lifetime rate
        // over the first-seen..last-seen window (4 records over 2.99 s).
        let workers = registry.workers_status(4_000);
        let worker = workers
            .get("workers")
            .and_then(JsonValue::as_array)
            .and_then(|list| list.first())
            .unwrap();
        assert_eq!(
            worker.get("last_seen_age_ms").and_then(JsonValue::as_u64),
            Some(1_000)
        );
        let rate = worker
            .get("records_per_sec")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!((rate - 4.0 / 2.99).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn ingest_rejects_foreign_and_misrouted_records() {
        let mut registry = Registry::new(TTL);
        let status = registry
            .submit(Submission::new(tiny_spec(), 2), 0)
            .expect("submit");
        let job = status
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        registry.lease("w1", 0);
        let lines = reference_lines(&tiny_spec());

        // A record whose id/key pair belongs to a different campaign.
        let foreign = lines[0].replace("Bm1", "Bm2");
        let error = registry
            .ingest(&job, 0, "w1", &foreign, 10)
            .expect_err("foreign");
        assert!(error.to_string().contains("fingerprint"), "{error}");

        // A record owned by the other shard.
        let error = registry
            .ingest(&job, 0, "w1", &lines[1], 10)
            .expect_err("misrouted");
        assert!(error.to_string().contains("shard"), "{error}");

        // An id outside the campaign.
        let outside = lines[0].replace("\"id\":0", "\"id\":40");
        let error = registry
            .ingest(&job, 0, "w1", &outside, 10)
            .expect_err("outside");
        assert!(error.to_string().contains("outside"), "{error}");

        // Unknown job / shard out of range.
        assert!(matches!(
            registry.ingest("j999999", 0, "w1", &lines[0], 10),
            Err(ServiceError::NotFound(_))
        ));
        assert!(matches!(
            registry.ingest(&job, 9, "w1", &lines[0], 10),
            Err(ServiceError::BadRequest(_))
        ));
    }

    #[test]
    fn duplicates_and_partial_lines_are_tolerated() {
        let mut registry = Registry::new(TTL);
        let job = registry
            .submit(Submission::new(tiny_spec(), 1), 0)
            .expect("submit")
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        registry.lease("w1", 0);
        let lines = reference_lines(&tiny_spec());
        let body = format!("{}\n{}\n", lines[0], lines[1]);
        registry.ingest(&job, 0, "w1", &body, 10).expect("first");
        // Re-streaming the same records (a re-leased shard) only counts
        // duplicates; a trailing partial line (crashed sender) is ignored.
        let partial = &lines[2][..lines[2].len() - 4];
        let body = format!("{}\n{}\n{partial}", lines[0], lines[2]);
        let report = registry.ingest(&job, 0, "w1", &body, 20).expect("second");
        assert_eq!(
            report,
            IngestReport {
                accepted: 1,
                duplicates: 1,
                ignored: 1,
                spans: 0
            }
        );
        // Marking done with a missing record is refused.
        let error = registry
            .shard_done(&job, 0, "w1", 30)
            .expect_err("incomplete");
        assert!(error.to_string().contains("3 of 4"), "{error}");
        registry.ingest(&job, 0, "w1", &lines[3], 40).expect("last");
        registry.shard_done(&job, 0, "w1", 50).expect("done");
    }

    #[test]
    fn expired_leases_move_to_new_workers_and_block_zombies() {
        let mut registry = Registry::new(TTL);
        let job = registry
            .submit(Submission::new(tiny_spec(), 1), 0)
            .expect("submit")
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        let lines = reference_lines(&tiny_spec());
        registry.lease("dead", 0);
        registry
            .ingest(&job, 0, "dead", &lines[0], 10)
            .expect("partial progress");
        // Not expired yet: another worker cannot take or write the shard.
        assert!(registry.lease("next", 60).get("lease").is_none());
        assert!(matches!(
            registry.ingest(&job, 0, "next", &lines[1], 60),
            Err(ServiceError::Conflict(_))
        ));
        // After the TTL the shard is re-leased with the completed ids.
        let lease = registry.lease("next", 200);
        let lease = lease.get("lease").expect("expired lease is reassigned");
        let completed: Vec<u64> = lease
            .get("completed_ids")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect();
        assert_eq!(completed, vec![0]);
        // The zombie's writes now conflict; the new worker's are accepted,
        // and its re-streams of the zombie's records dedup.
        assert!(matches!(
            registry.ingest(&job, 0, "dead", &lines[1], 210),
            Err(ServiceError::Conflict(_))
        ));
        let body = format!("{}\n{}\n{}\n", lines[1], lines[2], lines[3]);
        let report = registry
            .ingest(&job, 0, "next", &body, 220)
            .expect("ingest");
        assert_eq!(report.accepted, 3);
        registry.shard_done(&job, 0, "next", 230).expect("done");
        assert!(registry.drained());
    }

    fn lease_job(response: &JsonValue) -> String {
        response
            .get("lease")
            .and_then(|lease| lease.get("job"))
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    }

    fn submit_for(registry: &mut Registry, client: &str, shards: usize, now_ms: u64) -> String {
        registry
            .submit(
                Submission::new(tiny_spec(), shards).for_client(client, 0),
                now_ms,
            )
            .expect("submit")
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn second_client_is_granted_within_one_round_of_a_saturating_job() {
        let mut registry = Registry::new(TTL);
        let big = submit_for(&mut registry, "alpha", 4, 0);
        // The saturating client grabs the first shard unopposed.
        assert_eq!(lease_job(&registry.lease("w1", 10)), big);
        // A second client shows up mid-campaign...
        let small = submit_for(&mut registry, "beta", 2, 10);
        // ...and its first grant arrives on the very next lease — one
        // round-robin turn, not after alpha's three remaining shards.
        assert_eq!(lease_job(&registry.lease("w1", 20)), small);
        // The rotation keeps alternating while both have work...
        assert_eq!(lease_job(&registry.lease("w1", 30)), big);
        assert_eq!(lease_job(&registry.lease("w1", 40)), small);
        assert_eq!(lease_job(&registry.lease("w1", 50)), big);
        // ...and alpha drains the tail once beta's two shards are out.
        assert_eq!(lease_job(&registry.lease("w1", 60)), big);
        assert!(registry.lease("w1", 70).get("lease").is_none());
    }

    #[test]
    fn higher_priority_tiers_are_served_first() {
        let mut registry = Registry::new(TTL);
        let routine = submit_for(&mut registry, "alpha", 1, 0);
        let urgent = registry
            .submit(Submission::new(tiny_spec(), 1).for_client("beta", 5), 10)
            .expect("submit")
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        // The later-submitted but higher-priority job wins the scan.
        assert_eq!(lease_job(&registry.lease("w1", 20)), urgent);
        assert_eq!(lease_job(&registry.lease("w2", 30)), routine);
    }

    #[test]
    fn client_pending_shards_charges_undone_work() {
        let mut registry = Registry::new(TTL);
        let job = submit_for(&mut registry, "ci", 2, 0);
        assert_eq!(registry.client_pending_shards("ci"), 2);
        assert_eq!(registry.client_pending_shards("someone-else"), 0);
        // A leased shard still counts — it is in-flight backlog...
        registry.lease("w1", 10);
        assert_eq!(registry.client_pending_shards("ci"), 2);
        // ...until its records land and it completes.
        let lines = reference_lines(&tiny_spec());
        let body = format!("{}\n{}\n", lines[0], lines[2]);
        registry.ingest(&job, 0, "w1", &body, 20).expect("ingest");
        registry.shard_done(&job, 0, "w1", 30).expect("done");
        assert_eq!(registry.client_pending_shards("ci"), 1);
    }

    #[test]
    fn dump_restore_round_trips_replayable_state() {
        let mut registry = Registry::new(TTL);
        let job = registry
            .submit(
                Submission::new(tiny_spec(), 2)
                    .for_client("alpha", 3)
                    .traced(0xABCD_EF01_2345_6789, 1_700_000_000_000_000),
                0,
            )
            .expect("submit")
            .get("job")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        registry.lease("w1", 10);
        let lines = reference_lines(&tiny_spec());
        let body = format!("{}\n{}\n", lines[0], lines[2]);
        registry.ingest(&job, 0, "w1", &body, 20).expect("ingest");
        registry.shard_done(&job, 0, "w1", 30).expect("done");

        let mut restored = Registry::new(TTL);
        let (jobs, records) = restored.restore(&registry.dump()).expect("restore");
        assert_eq!((jobs, records), (1, 2));
        assert_eq!(restored.snapshot().to_json(), registry.snapshot().to_json());
        // The clone schedules exactly like the original: same next grant
        // (trace context included) and same next job id.
        assert_eq!(
            restored.lease("w2", 40).to_json(),
            registry.lease("w2", 40).to_json()
        );
        let next = |r: &mut Registry| {
            r.submit(Submission::new(tiny_spec(), 1), 50)
                .expect("submit")
                .get("job")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(next(&mut restored), next(&mut registry));

        // A snapshot whose fingerprint disagrees with its spec is refused.
        let tampered = registry
            .dump()
            .to_json()
            .replace(&tiny_spec().fingerprint(), "deadbeef");
        let tampered = JsonValue::parse(&tampered).expect("parse");
        assert!(matches!(
            Registry::new(TTL).restore(&tampered),
            Err(ServiceError::Protocol(_))
        ));

        // So is one whose completed ids are not exactly its record ids, or
        // whose records repeat an id: ingest dedups on `completed`, so
        // either would let a re-streamed record in twice.
        let dump = registry.dump().to_json();
        let quoted = |line: &str| JsonValue::from(line).to_json();
        let repeated = dump.replace(&quoted(&lines[2]), &quoted(&lines[0]));
        for tampered in [
            dump.replace("\"completed\":[0,2]", "\"completed\":[\"x\"]"),
            dump.replace("\"completed\":[0,2]", "\"completed\":[0]"),
            dump.replace("\"completed\":[0,2]", "\"completed\":[0,1,2]"),
            repeated.replace("\"completed\":[0,2]", "\"completed\":[0]"),
        ] {
            assert_ne!(tampered, dump);
            let tampered = JsonValue::parse(&tampered).expect("parse");
            let error = Registry::new(TTL).restore(&tampered).expect_err("refused");
            assert!(matches!(error, ServiceError::Protocol(_)), "{error}");
        }
    }

    #[test]
    fn empty_campaigns_are_rejected_and_shards_clamp() {
        let mut registry = Registry::new(TTL);
        let mut empty = tiny_spec();
        empty.policies.clear();
        assert!(matches!(
            registry.submit(Submission::new(empty, 2), 0),
            Err(ServiceError::BadRequest(_))
        ));
        // 99 shards over 4 scenarios clamps to 4.
        let status = registry
            .submit(Submission::new(tiny_spec(), 99), 0)
            .expect("submit");
        assert_eq!(
            status
                .get("shards")
                .and_then(|s| s.get("count"))
                .and_then(JsonValue::as_u64),
            Some(4)
        );
    }
}
