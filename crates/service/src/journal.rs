//! The registry journal: crash-safe persistence for the campaign service.
//!
//! PR 3's batch engine already survives `kill -9` because its JSONL result
//! file doubles as a write-ahead log (`tats batch --resume`). This module
//! gives the *service* the same property: every state transition of the
//! [`Registry`] — job submitted, shard leased, record batch ingested, shard
//! done, leases reset — is appended to a JSONL journal the moment it
//! happens, and a restarted server replays the journal to reconstruct the
//! registry exactly.
//!
//! # Replay ≡ live, by construction
//!
//! The journal does not serialise registry *state*; it records the
//! *inputs* of every successful mutating call, including the `now_ms`
//! timestamp the live server used. The registry is a deterministic state
//! machine (clock-free, lock-free: every method takes `now_ms`), so
//! re-applying the same calls with the same timestamps reproduces the same
//! state — [`replay`] literally calls the same public [`Registry`] methods
//! the live server called. The `journal_replay` test suite pins
//! `snapshot(replay(journal)) == snapshot(live)` across randomised
//! interleavings, truncated tails included.
//!
//! Two deliberate asymmetries:
//!
//! * **Idle lease polls are not journaled.** They change no replayable
//!   state (only per-worker statistics, which [`Registry::snapshot`]
//!   excludes); journaling them would bloat the file with heartbeats.
//! * **Lease *grants* are verified on replay.** The journaled event carries
//!   the job and shard the live server granted; replay re-runs the lease
//!   scan and refuses the journal (with [`ServiceError::Protocol`]) if it
//!   would grant anything else — a corrupted or hand-edited journal fails
//!   loudly at boot instead of silently diverging.
//!
//! # Ordering and crash windows
//!
//! A mutation is applied to the in-memory registry first, then journaled
//! (flushed per line), then acknowledged over HTTP. A crash between apply
//! and acknowledge means the client never saw a 2xx, retries, and the
//! server-side dedup (ingest by scenario id, idempotent done, lease TTLs)
//! absorbs the repeat — so the journal never acknowledges state it did not
//! persist. A `kill -9` mid-append leaves at most one partial final line,
//! which [`JournaledRegistry::open`] repairs with the same
//! `truncate_partial_tail` discipline the batch engine uses.
//!
//! Lease deadlines live in the dead process's monotonic clock, so after
//! replay the server calls [`JournaledRegistry::reset_leases`], which
//! journals a `reset_leases` event and converts live leases back to
//! pending. Still-running workers re-acquire their shard on their next
//! record batch; dedup absorbs any re-streams.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tats_trace::log::LogFilter;
use tats_trace::metrics::Histogram;
use tats_trace::spans::{id_hex_or_empty, parse_id};
use tats_trace::{jsonl, JsonValue};

use crate::error::ServiceError;
use crate::registry::{IngestReport, Registry, Submission};

/// What [`replay`] reconstructed from a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Complete journal events applied.
    pub events: usize,
    /// Jobs reconstructed (submit events plus snapshot-restored jobs).
    pub jobs: usize,
    /// Records re-ingested (accepted lines across ingest events, plus
    /// snapshot-restored records).
    pub records: usize,
    /// Snapshot events fast-forwarded through (0 on an uncompacted
    /// journal, 1 after a compaction).
    pub snapshots: usize,
    /// Bytes of partial trailing line dropped by the crash repair (only
    /// set by [`JournaledRegistry::open`], which owns the file).
    pub repaired_bytes: u64,
}

/// What one [`JournaledRegistry::compact`] run did to the journal file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Journal size before compaction, bytes.
    pub bytes_before: u64,
    /// Journal size after (one `snapshot` line), bytes.
    pub bytes_after: u64,
}

/// The temporary path a compaction snapshot is staged at before it
/// atomically replaces `journal` — `<journal>.compact`. A crash
/// mid-compaction leaves at most this staging file behind; replay never
/// reads it, so the old journal stays authoritative until the rename.
pub fn compaction_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_os_string();
    os.push(".compact");
    PathBuf::from(os)
}

fn protocol(message: String) -> ServiceError {
    ServiceError::Protocol(format!("journal: {message}"))
}

/// The job and shard index a lease response granted, `None` for an idle
/// poll — what a `lease` event records and replay must reproduce.
fn granted(response: &JsonValue) -> Option<(&str, u64)> {
    let lease = response.get("lease")?;
    let shard = lease.get("shard")?.as_str()?.split('/').next()?;
    Some((lease.get("job")?.as_str()?, shard.parse().ok()?))
}

/// Replays a journal into a fresh [`Registry`] with the given lease TTL.
///
/// Purely a reader: blank and structurally incomplete lines (a crash
/// mid-append) are skipped, the file is not modified. Use
/// [`JournaledRegistry::open`] to also repair the tail and continue
/// appending.
///
/// # Errors
///
/// Returns [`ServiceError::Io`] for unreadable files and
/// [`ServiceError::Protocol`] for malformed events or events the registry
/// refuses — including a lease grant that does not reproduce, the signature
/// of a corrupted journal. A missing file replays to an empty registry.
pub fn replay(path: &Path, lease_ttl_ms: u64) -> Result<(Registry, ReplayReport), ServiceError> {
    replay_with_filter(path, lease_ttl_ms, Arc::new(LogFilter::off()))
}

/// [`replay`] with a structured-log filter installed *before* the events
/// are applied, so the registry regenerates the log lines of every
/// journaled transition (they are pure functions of journaled inputs, like
/// the transition spans). The server uses this to restore `GET /logs`
/// continuity across a restart.
///
/// # Errors
///
/// As [`replay`].
pub fn replay_with_filter(
    path: &Path,
    lease_ttl_ms: u64,
    filter: Arc<LogFilter>,
) -> Result<(Registry, ReplayReport), ServiceError> {
    let mut registry = Registry::new(lease_ttl_ms);
    registry.set_log_filter(filter);
    let mut report = ReplayReport::default();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((registry, report)),
        Err(e) => return Err(ServiceError::Io(e)),
    };
    for line in text.lines() {
        if line.trim().is_empty() || !jsonl::is_complete_record(line) {
            continue;
        }
        let event = JsonValue::parse(line).map_err(|e| protocol(format!("unparsable: {e}")))?;
        apply(&mut registry, &event, &mut report)?;
        report.events += 1;
    }
    Ok((registry, report))
}

/// Applies one journaled event to `registry`, verifying that the outcome
/// matches what the live server recorded.
fn apply(
    registry: &mut Registry,
    event: &JsonValue,
    report: &mut ReplayReport,
) -> Result<(), ServiceError> {
    match event.field_str("event").map_err(protocol)? {
        "submit" => {
            // Admission fields are absent from pre-quota journals, trace
            // fields from pre-tracing ones; those replay under the shared
            // default client, untraced — exactly as they ran.
            let trace_id = event
                .get("trace_id")
                .and_then(JsonValue::as_str)
                .and_then(parse_id)
                .unwrap_or(0);
            let trace_us = event
                .get("trace_us")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            let submission = Submission::from_json(event)
                .map_err(|e| protocol(format!("submit event: {e}")))?
                .traced(trace_id, trace_us);
            let now_ms = event.field_u64("now_ms").map_err(protocol)?;
            let journaled_job = event.field_str("job").map_err(protocol)?;
            let status = registry
                .submit(submission, now_ms)
                .map_err(|e| protocol(format!("submit refused on replay: {e}")))?;
            let job = status.get("job").and_then(JsonValue::as_str).unwrap_or("");
            if job != journaled_job {
                return Err(protocol(format!(
                    "submit replayed as job '{job}' but the journal says '{journaled_job}'"
                )));
            }
            report.jobs += 1;
        }
        "lease" => {
            let worker = event.field_str("worker").map_err(protocol)?;
            let now_ms = event.field_u64("now_ms").map_err(protocol)?;
            let journaled_job = event.field_str("job").map_err(protocol)?;
            let journaled_shard = event.field_u64("shard").map_err(protocol)?;
            let response = registry.lease(worker, now_ms);
            let replayed = granted(&response);
            if replayed != Some((journaled_job, journaled_shard)) {
                return Err(protocol(format!(
                    "lease for '{worker}' replayed as {replayed:?} but the journal \
                     says shard {journaled_shard} of '{journaled_job}'"
                )));
            }
        }
        "ingest" => {
            let job = event.field_str("job").map_err(protocol)?;
            let shard = event.field_u64("shard").map_err(protocol)? as usize;
            let worker = event.field_str("worker").map_err(protocol)?;
            let body = event.field_str("body").map_err(protocol)?;
            let now_ms = event.field_u64("now_ms").map_err(protocol)?;
            let ingested = registry
                .ingest(job, shard, worker, body, now_ms)
                .map_err(|e| protocol(format!("ingest refused on replay: {e}")))?;
            report.records += ingested.accepted;
        }
        "done" => {
            let job = event.field_str("job").map_err(protocol)?;
            let shard = event.field_u64("shard").map_err(protocol)? as usize;
            let worker = event.field_str("worker").map_err(protocol)?;
            let now_ms = event.field_u64("now_ms").map_err(protocol)?;
            registry
                .shard_done(job, shard, worker, now_ms)
                .map_err(|e| protocol(format!("done refused on replay: {e}")))?;
        }
        "reset_leases" => {
            registry.reset_leases();
        }
        "snapshot" => {
            // A compaction snapshot: fast-forward the registry to the
            // serialized state instead of replaying the events it folded
            // away. [`Registry::restore`] fails loudly on a corrupted
            // snapshot (fingerprint/spec mismatch, structural damage).
            let state = event
                .get("state")
                .ok_or_else(|| protocol("snapshot event missing 'state'".to_string()))?;
            let (jobs, records) = registry.restore(state)?;
            report.jobs += jobs;
            report.records += records;
            report.snapshots += 1;
        }
        other => return Err(protocol(format!("unknown event '{other}'"))),
    }
    Ok(())
}

/// A [`Registry`] whose every successful state transition is appended to an
/// optional JSONL journal — the single type both the live server and the
/// replay tests drive, so "what gets journaled" cannot drift from "what
/// gets applied".
///
/// Without a journal (`journal: None`) it behaves exactly like a bare
/// registry; [`JournaledRegistry::seal`] flips it into the aborted state
/// where every mutation is refused — the in-process stand-in for a killed
/// server, used by the crash tests and [`ServiceHandle::abort`].
///
/// [`ServiceHandle::abort`]: crate::ServiceHandle::abort
#[derive(Debug)]
pub struct JournaledRegistry {
    registry: Registry,
    journal: Option<jsonl::JsonlWriter<std::fs::File>>,
    /// The journal's path — kept so [`JournaledRegistry::compact`] can
    /// stage and rename over it. `None` for journal-less registries.
    path: Option<PathBuf>,
    sealed: bool,
    /// Auto-compaction threshold: when `Some(n)`, a compaction runs as
    /// soon as the journal holds `n` or more events (replayed events
    /// count, so a long-lived journal compacts right after boot too).
    compact_every: Option<u64>,
    /// Events in the journal file right now (replayed + appended since
    /// the last compaction).
    events_in_journal: u64,
    /// Compactions performed by this incarnation (auto + on-demand) —
    /// the `journal_compactions_total` series of `/metrics`.
    compactions: u64,
    /// When set, every journal append (write + per-line flush) records its
    /// latency here — the `journal_append_seconds` series of `/metrics`.
    append_latency: Option<Arc<Histogram>>,
}

impl JournaledRegistry {
    /// A journal-less registry (state lives and dies with the process).
    pub fn new(lease_ttl_ms: u64) -> Self {
        JournaledRegistry {
            registry: Registry::new(lease_ttl_ms),
            journal: None,
            path: None,
            sealed: false,
            compact_every: None,
            events_in_journal: 0,
            compactions: 0,
            append_latency: None,
        }
    }

    /// Opens (or creates) a journal at `path`: repairs a partial trailing
    /// line left by a crash, replays every event into a fresh registry, and
    /// keeps the file open for appending subsequent transitions.
    ///
    /// The caller (the server, once it trusts the replay) should follow up
    /// with [`JournaledRegistry::reset_leases`] — leases replayed from a
    /// dead process's clock are meaningless in the new one.
    ///
    /// # Errors
    ///
    /// Propagates [`replay`] errors and I/O failures opening the file.
    pub fn open(path: &Path, lease_ttl_ms: u64) -> Result<(Self, ReplayReport), ServiceError> {
        Self::open_with_filter(path, lease_ttl_ms, Arc::new(LogFilter::off()))
    }

    /// [`JournaledRegistry::open`] with a structured-log filter installed
    /// before replay, so the registry regenerates the log lines of every
    /// replayed transition (see [`replay_with_filter`]).
    ///
    /// # Errors
    ///
    /// As [`JournaledRegistry::open`].
    pub fn open_with_filter(
        path: &Path,
        lease_ttl_ms: u64,
        filter: Arc<LogFilter>,
    ) -> Result<(Self, ReplayReport), ServiceError> {
        let (writer, repaired_bytes) = jsonl::append_repaired(path)?;
        let (registry, mut report) = replay_with_filter(path, lease_ttl_ms, filter)?;
        report.repaired_bytes = repaired_bytes;
        Ok((
            JournaledRegistry {
                registry,
                journal: Some(writer),
                path: Some(path.to_path_buf()),
                sealed: false,
                compact_every: None,
                events_in_journal: report.events as u64,
                compactions: 0,
                append_latency: None,
            },
            report,
        ))
    }

    /// Read access to the underlying registry (status, records, snapshots).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// [`Registry::take_trace_lines`]: span lines appended since the last
    /// call. Not journaled (the journal regenerates them by replay) and
    /// not gated by sealing — draining writes nothing.
    pub fn take_trace_lines(&mut self) -> Vec<String> {
        self.registry.take_trace_lines()
    }

    /// [`Registry::set_trace_buffered`]: turns the trace-log feed on or
    /// off. Not journaled — it only controls whether span lines are copied
    /// for the feed, never what the per-job streams contain.
    pub fn set_trace_buffered(&mut self, buffered: bool) {
        self.registry.set_trace_buffered(buffered);
    }

    /// [`Registry::set_log_filter`]: installs the structured-log filter.
    /// Not journaled — it controls observability output, not state.
    pub fn set_log_filter(&mut self, filter: Arc<LogFilter>) {
        self.registry.set_log_filter(filter);
    }

    /// [`Registry::take_log_lines`]: structured log lines emitted since
    /// the last call. Not journaled (replay regenerates them) and not
    /// gated by sealing — draining writes nothing.
    pub fn take_log_lines(&mut self) -> Vec<String> {
        self.registry.take_log_lines()
    }

    /// Refuses every further mutation and closes the journal file. This is
    /// the `kill -9` stand-in: a sealed registry performs no transition and
    /// writes no byte, so a restarted server replaying the same journal
    /// file sees exactly what a real dead process would have left.
    pub fn seal(&mut self) {
        self.sealed = true;
        self.journal = None;
    }

    /// Whether [`JournaledRegistry::seal`] was called.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    fn check_sealed(&self) -> Result<(), ServiceError> {
        if self.sealed {
            Err(ServiceError::Unavailable(
                "server aborted; no further state transitions".to_string(),
            ))
        } else {
            Ok(())
        }
    }

    /// Installs the histogram that times every journal append.
    pub fn set_append_latency(&mut self, histogram: Arc<Histogram>) {
        self.append_latency = Some(histogram);
    }

    fn append(&mut self, event: JsonValue) -> Result<(), ServiceError> {
        if let Some(writer) = &mut self.journal {
            let clock = Instant::now();
            writer.write(&event).map_err(ServiceError::Io)?;
            if let Some(histogram) = &self.append_latency {
                histogram.record_duration(clock.elapsed());
            }
            self.events_in_journal += 1;
            if self
                .compact_every
                .is_some_and(|every| self.events_in_journal >= every)
            {
                // The triggering mutation is already applied *and*
                // journaled, so a compaction failure here loses nothing —
                // it propagates like any other journal I/O failure and
                // the old journal stays authoritative.
                self.compact()?;
            }
        }
        Ok(())
    }

    /// Sets the auto-compaction threshold: `Some(n)` compacts the journal
    /// whenever it holds `n` or more events (`tats serve
    /// --compact-every-events n`). `None` (the default) compacts only on
    /// demand via [`JournaledRegistry::compact`].
    pub fn set_compact_every(&mut self, every: Option<u64>) {
        self.compact_every = every.filter(|n| *n > 0);
    }

    /// Rewrites the journal as one `snapshot` event carrying the full
    /// registry state ([`Registry::dump`]), folding away every event it
    /// subsumes. Crash-safe at every step: the snapshot is staged at
    /// [`compaction_path`], fsynced, and only then atomically renamed over
    /// the journal — a `kill -9` before the rename leaves the old journal
    /// untouched and authoritative (replay never reads the staging file),
    /// and one after the rename leaves the new journal complete.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadRequest`] for a journal-less registry,
    /// [`ServiceError::Unavailable`] when sealed, and I/O failures from
    /// staging, fsync or rename — all of which leave the old journal in
    /// place.
    pub fn compact(&mut self) -> Result<CompactReport, ServiceError> {
        self.check_sealed()?;
        let Some(path) = self.path.clone() else {
            return Err(ServiceError::BadRequest(
                "no journal configured; nothing to compact".to_string(),
            ));
        };
        let bytes_before = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let staging = compaction_path(&path);
        let mut writer = jsonl::JsonlWriter::new(std::fs::File::create(&staging)?);
        writer.write(&JsonValue::object(vec![
            ("event".to_string(), JsonValue::from("snapshot")),
            ("state".to_string(), self.registry.dump()),
        ]))?;
        // Durability before visibility: the snapshot must be on disk
        // before it can replace the journal.
        writer.into_inner().sync_all()?;
        std::fs::rename(&staging, &path)?;
        let (writer, _) = jsonl::append_repaired(&path)?;
        self.journal = Some(writer);
        self.events_in_journal = 1;
        self.compactions += 1;
        let bytes_after = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Ok(CompactReport {
            bytes_before,
            bytes_after,
        })
    }

    /// Compactions performed since this registry was opened.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// [`Registry::submit`], journaled (trace context included, so replay
    /// regenerates the job's transition spans byte-identically).
    ///
    /// # Errors
    ///
    /// Propagates the registry's refusal, [`ServiceError::Unavailable`]
    /// when sealed, and journal-append I/O failures.
    pub fn submit(
        &mut self,
        submission: Submission,
        now_ms: u64,
    ) -> Result<JsonValue, ServiceError> {
        self.check_sealed()?;
        let mut event = submission.to_fields();
        event.push((
            "trace_id".to_string(),
            JsonValue::from(id_hex_or_empty(submission.trace_id).as_str()),
        ));
        event.push((
            "trace_us".to_string(),
            JsonValue::from(submission.trace_us as usize),
        ));
        let status = self.registry.submit(submission, now_ms)?;
        let job = status.get("job").and_then(JsonValue::as_str).unwrap_or("");
        event.push(("event".to_string(), JsonValue::from("submit")));
        event.push(("now_ms".to_string(), JsonValue::from(now_ms as usize)));
        event.push(("job".to_string(), JsonValue::from(job)));
        self.append(JsonValue::object(event))?;
        Ok(status)
    }

    /// [`Registry::lease`], journaled when a shard is actually granted
    /// (idle polls change no replayable state).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Unavailable`] when sealed and journal-append
    /// I/O failures.
    pub fn lease(&mut self, worker: &str, now_ms: u64) -> Result<JsonValue, ServiceError> {
        self.check_sealed()?;
        let response = self.registry.lease(worker, now_ms);
        if let Some((job, shard)) = granted(&response) {
            self.append(JsonValue::object(vec![
                ("event".to_string(), JsonValue::from("lease")),
                ("now_ms".to_string(), JsonValue::from(now_ms as usize)),
                ("worker".to_string(), JsonValue::from(worker)),
                ("job".to_string(), JsonValue::from(job)),
                ("shard".to_string(), JsonValue::from(shard as usize)),
            ]))?;
        }
        Ok(response)
    }

    /// [`Registry::ingest`], journaled on success with the raw JSONL body.
    ///
    /// # Errors
    ///
    /// Propagates the registry's refusal, [`ServiceError::Unavailable`]
    /// when sealed, and journal-append I/O failures.
    pub fn ingest(
        &mut self,
        job: &str,
        shard: usize,
        worker: &str,
        body: &str,
        now_ms: u64,
    ) -> Result<IngestReport, ServiceError> {
        self.check_sealed()?;
        let report = self.registry.ingest(job, shard, worker, body, now_ms)?;
        self.append(JsonValue::object(vec![
            ("event".to_string(), JsonValue::from("ingest")),
            ("now_ms".to_string(), JsonValue::from(now_ms as usize)),
            ("job".to_string(), JsonValue::from(job)),
            ("shard".to_string(), JsonValue::from(shard)),
            ("worker".to_string(), JsonValue::from(worker)),
            ("body".to_string(), JsonValue::from(body)),
        ]))?;
        Ok(report)
    }

    /// [`Registry::shard_done`], journaled on success.
    ///
    /// # Errors
    ///
    /// Propagates the registry's refusal, [`ServiceError::Unavailable`]
    /// when sealed, and journal-append I/O failures.
    pub fn shard_done(
        &mut self,
        job: &str,
        shard: usize,
        worker: &str,
        now_ms: u64,
    ) -> Result<JsonValue, ServiceError> {
        self.check_sealed()?;
        let status = self.registry.shard_done(job, shard, worker, now_ms)?;
        self.append(JsonValue::object(vec![
            ("event".to_string(), JsonValue::from("done")),
            ("now_ms".to_string(), JsonValue::from(now_ms as usize)),
            ("job".to_string(), JsonValue::from(job)),
            ("shard".to_string(), JsonValue::from(shard)),
            ("worker".to_string(), JsonValue::from(worker)),
        ]))?;
        Ok(status)
    }

    /// [`Registry::reset_leases`], journaled when it reset anything. The
    /// reset must be journaled: subsequent lease grants depend on it, so a
    /// second replay without it would grant different shards and refuse the
    /// journal as corrupt.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Unavailable`] when sealed and journal-append
    /// I/O failures.
    pub fn reset_leases(&mut self) -> Result<usize, ServiceError> {
        self.check_sealed()?;
        let reset = self.registry.reset_leases();
        if reset > 0 {
            self.append(JsonValue::object(vec![(
                "event".to_string(),
                JsonValue::from("reset_leases"),
            )]))?;
        }
        Ok(reset)
    }
}
