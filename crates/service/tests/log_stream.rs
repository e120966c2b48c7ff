//! The structured-log surface over real sockets: `GET /logs` paging, the
//! crash-stability contract for journal-derived lines, `--log-file`
//! append semantics, a worker's log sink and the self-contained
//! `GET /dashboard` page.
//!
//! The stability contract mirrors the span stream's, with one deliberate
//! carve-out: registry transition lines (`"target":"registry"`) are
//! stamped on the journaled clock and regenerate byte-for-byte on replay,
//! while lease grants and server lifecycle lines (`"target":"lease"` /
//! `"server"`) are live-only ring content and may differ or disappear
//! across a restart. Tests therefore pin only the `registry` subset.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use tats_core::Policy;
use tats_engine::{CampaignSpec, Effort, FlowKind};
use tats_service::{
    client, console, run_worker, Service, ServiceConfig, ServiceError, WorkerConfig,
};
use tats_taskgraph::Benchmark;
use tats_trace::log::{LogEvent, LogFilter, LogLevel, LogSink};
use tats_trace::JsonValue;

/// 1 benchmark x platform x 5 policies x 2 seeds = 10 scenarios.
fn spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec![Benchmark::Bm1],
        flows: vec![FlowKind::Platform],
        policies: Policy::ALL.to_vec(),
        solvers: vec![None],
        seeds: vec![0, 1],
        grid_resolution: (16, 16),
        effort: Effort::Fast,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tats_log_stream_{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Journaled config with an explicit debug filter: the filter must be
/// identical across incarnations for the replay-stability contract, and
/// pinning it here keeps the tests independent of `TATS_LOG`.
fn debug_config(journal: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        lease_ttl_ms: 200,
        journal: journal.map(Path::to_path_buf),
        log_filter: Some(LogFilter::at(LogLevel::Debug)),
        ..ServiceConfig::default()
    }
}

fn submit_job(addr: &str, spec: &CampaignSpec, shards: usize) -> String {
    let body = JsonValue::object(vec![
        ("spec".to_string(), spec.to_json()),
        ("shards".to_string(), JsonValue::from(shards)),
    ])
    .to_json();
    let response = client::request(addr, "POST", "/jobs", &[], Some(&body))
        .and_then(client::expect_ok)
        .expect("submit");
    JsonValue::parse(&response.body)
        .expect("submit response")
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string()
}

fn drain_with_worker(addr: &str, name: &str) {
    run_worker(
        addr,
        &WorkerConfig {
            name: name.to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("drain");
}

/// Only the lines the journal regenerates: registry state transitions.
fn registry_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter(|line| line.contains("\"target\":\"registry\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn logs_endpoint_pages_like_records_and_spans() {
    let server = Service::bind("127.0.0.1:0", debug_config(None)).expect("bind");
    let addr = server.addr_string();
    submit_job(&addr, &spec(), 2);
    drain_with_worker(&addr, "log-page-w1");

    let full = client::get(&addr, "/logs").expect("logs");
    assert_eq!(
        full.header("content-type").map(str::to_lowercase),
        Some("application/jsonl".to_string())
    );
    let next: usize = full
        .header("x-next-from")
        .and_then(|value| value.parse().ok())
        .expect("x-next-from header");
    assert_eq!(next, full.body.lines().count(), "contiguous from zero");
    assert!(next > 0, "the drained campaign must have logged");

    // Every line is schema-valid and the expected transitions are present.
    for line in full.body.lines() {
        LogEvent::parse_line(line).expect("log line parses");
    }
    for needle in [
        "\"message\":\"listening\"",
        "\"message\":\"job submitted\"",
        "\"message\":\"shard leased\"",
        "\"message\":\"records ingested\"",
        "\"message\":\"shard done\"",
        "\"message\":\"job done\"",
    ] {
        assert!(
            full.body.contains(needle),
            "missing {needle}:\n{}",
            full.body
        );
    }

    // Two-chunk paging reassembles the identical stream.
    let midpoint = next / 2;
    let head = client::get(&addr, "/logs?from=0").expect("head");
    let tail = client::get(&addr, &format!("/logs?from={midpoint}")).expect("tail");
    let first_chunk: String = head
        .body
        .lines()
        .take(midpoint)
        .flat_map(|line| [line, "\n"])
        .collect();
    assert_eq!(format!("{first_chunk}{}", tail.body), full.body);

    // `from` at or past the head: empty page, header still reports the
    // next index to poll from.
    let past = client::get(&addr, &format!("/logs?from={}", usize::MAX)).expect("past");
    assert!(past.body.is_empty());
    assert_eq!(
        past.header("x-next-from").and_then(|v| v.parse().ok()),
        Some(next)
    );

    // A malformed `from` is a 400 naming the value, not a panic.
    let bad =
        client::request(&addr, "GET", "/logs?from=banana", &[], None).expect("bad from request");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("banana"), "{}", bad.body);
    server.stop();
}

#[test]
fn registry_log_lines_are_byte_stable_across_kill_and_restart() {
    let path = temp_path("kill_restart");
    let config = debug_config(Some(&path));
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    submit_job(&addr, &spec(), 2);

    // A worker crashes 2 records into its shard; the server is then killed
    // mid-campaign and restarted, and a fresh worker drains the rest (the
    // crashed shard is re-leased, its re-streams deduped).
    let crash = run_worker(
        &addr,
        &WorkerConfig {
            name: "log-crash-w1".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            fail_after_records: Some(2),
            ..WorkerConfig::default()
        },
    )
    .expect_err("injected crash");
    assert!(matches!(crash, ServiceError::Aborted(_)), "{crash}");
    server.abort();

    let server = Service::bind(&addr, config.clone()).expect("rebind");
    drain_with_worker(&addr, "log-crash-w2");
    let live = client::get(&addr, "/logs").expect("logs").body;
    let live_registry = registry_lines(&live);
    assert!(
        live_registry
            .iter()
            .any(|line| line.contains("\"message\":\"job done\"")),
        "campaign must have finished:\n{live}"
    );
    server.abort();

    // Restart on the finished journal: replay regenerates the registry
    // lines into the ring byte-for-byte (journaled clock, filter installed
    // before replay). Lease/server lines are live-only and exempt.
    let server = Service::bind(&addr, config).expect("second rebind");
    let replayed = client::get(&addr, "/logs").expect("logs").body;
    assert_eq!(
        live_registry,
        registry_lines(&replayed),
        "registry-target log lines must be a pure function of the journal"
    );
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn log_file_tees_live_lines_but_not_replayed_ones() {
    let journal = temp_path("tee_journal");
    let log_file = temp_path("tee_log");
    let config = ServiceConfig {
        log_file: Some(log_file.clone()),
        ..debug_config(Some(&journal))
    };
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    submit_job(&addr, &spec(), 1);
    drain_with_worker(&addr, "log-tee-w1");
    // The flush after the last served request has already run by the time
    // run_worker returns (the drained poll response was written after it).
    server.abort();

    let first = std::fs::read_to_string(&log_file).expect("log file");
    let first_registry = registry_lines(&first).len();
    assert!(
        first_registry > 0,
        "live registry lines tee to disk:\n{first}"
    );

    // Restart: replayed registry lines go to the ring only. The file gains
    // live lines (listening, journal replayed) but no registry repeats.
    let server = Service::bind(&addr, config).expect("rebind");
    let ring = client::get(&addr, "/logs").expect("logs").body;
    assert_eq!(
        registry_lines(&ring).len(),
        first_registry,
        "ring restores every replayed registry line"
    );
    server.stop();
    let second = std::fs::read_to_string(&log_file).expect("log file");
    assert_eq!(
        registry_lines(&second).len(),
        first_registry,
        "replay must not re-append registry lines to the log file:\n{second}"
    );
    assert!(
        second.contains("\"message\":\"journal replayed\""),
        "{second}"
    );
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&log_file);
}

#[test]
fn dashboard_serves_one_self_contained_html_page() {
    let server = Service::bind("127.0.0.1:0", debug_config(None)).expect("bind");
    let addr = server.addr_string();
    let job = submit_job(&addr, &spec(), 2);
    drain_with_worker(&addr, "log-dash-w1");

    let page = client::get(&addr, "/dashboard").expect("dashboard");
    assert_eq!(
        page.header("content-type").map(str::to_lowercase),
        Some("text/html; charset=utf-8".to_string())
    );
    let html = page.body;
    assert!(html.starts_with("<!doctype html>"), "{html}");
    assert!(html.contains(&job), "job row present: {html}");
    assert!(html.contains("log-dash-w1"), "worker row present: {html}");
    assert!(html.contains("100%"), "finished job shows 100%: {html}");
    // The page shows the console frame: the job's row is the one
    // `console::frame` renders from that job's `/progress`.
    let progress = client::get(&addr, &format!("/jobs/{job}/progress")).expect("progress");
    let progress = JsonValue::parse(&progress.body).expect("progress json");
    let frame = console::frame("", &[progress], &[], &[], &[] as &[&str], 0);
    let row = frame
        .lines()
        .find(|line| line.starts_with(&job))
        .expect("frame has the job row");
    assert!(html.contains(row), "dashboard shows {row:?}:\n{html}");
    // Self-contained: no external fetches of any kind — the frame is plain
    // text in a `<pre>`, with no styling to load.
    for forbidden in ["src=", "href=", "http://", "https://", "url("] {
        assert!(
            !html.contains(forbidden),
            "dashboard must not reference external resources ({forbidden}):\n{html}"
        );
    }
    // The auto-refresh meta tag is the one allowed head directive.
    assert!(html.contains("http-equiv=\"refresh\""), "{html}");
    server.stop();
}

/// A writer the test keeps a handle on while the sink owns its clone.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer").extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_worker_with_a_log_sink_writes_its_lifecycle_as_jsonl() {
    let server = Service::bind("127.0.0.1:0", debug_config(None)).expect("bind");
    let addr = server.addr_string();
    submit_job(&addr, &spec(), 2);
    let captured = Captured::default();
    run_worker(
        &addr,
        &WorkerConfig {
            name: "log-sink-w1".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            log: Some(LogSink::new(
                LogFilter::at(LogLevel::Debug),
                captured.clone(),
            )),
            ..WorkerConfig::default()
        },
    )
    .expect("drain");
    server.stop();

    let text = String::from_utf8(captured.0.lock().expect("buffer").clone()).expect("utf-8");
    let events: Vec<LogEvent> = text
        .lines()
        .map(|line| LogEvent::parse_line(line).expect("log line parses"))
        .collect();
    assert!(
        events.iter().all(|event| event.target == "worker"),
        "{text}"
    );
    let count = |message: &str| {
        events
            .iter()
            .filter(|event| event.message == message)
            .count()
    };
    assert_eq!(count("lease acquired"), 2, "{text}");
    assert_eq!(count("shard completed"), 2, "{text}");
    assert_eq!(count("drained; exiting"), 1, "{text}");
}
