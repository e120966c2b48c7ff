//! The server's outward surface, pinned: which routes exist, that none
//! answers 503 on a fresh server, the endpoint labels `/metrics` reports,
//! and what `--trace-log` writes across a restart.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use tats_core::Policy;
use tats_engine::{CampaignSpec, Effort, FlowKind};
use tats_service::{client, run_worker, Service, ServiceConfig, WorkerConfig};
use tats_taskgraph::Benchmark;
use tats_trace::log::LogFilter;
use tats_trace::spans::{id_hex, SpanEvent, SpanIdGen, SpanKind};
use tats_trace::JsonValue;

/// Every route: the method, a concrete path that reaches it, and the
/// endpoint label `/metrics` files it under.
const ROUTES: [(&str, &str, &str); 17] = [
    ("GET", "/healthz", "GET /healthz"),
    ("GET", "/readyz", "GET /readyz"),
    ("GET", "/metrics", "GET /metrics"),
    ("GET", "/logs", "GET /logs"),
    ("GET", "/dashboard", "GET /dashboard"),
    ("POST", "/jobs", "POST /jobs"),
    ("GET", "/jobs", "GET /jobs"),
    ("GET", "/jobs/j000001", "GET /jobs/{id}"),
    ("GET", "/jobs/j000001/records", "GET /jobs/{id}/records"),
    ("GET", "/jobs/j000001/spans", "GET /jobs/{id}/spans"),
    ("GET", "/jobs/j000001/progress", "GET /jobs/{id}/progress"),
    ("GET", "/jobs/j000001/summary", "GET /jobs/{id}/summary"),
    ("GET", "/workers", "GET /workers"),
    ("POST", "/lease", "POST /lease"),
    (
        "POST",
        "/jobs/j000001/shards/0/records",
        "POST /jobs/{id}/shards/{i}/records",
    ),
    (
        "POST",
        "/jobs/j000001/shards/0/done",
        "POST /jobs/{id}/shards/{i}/done",
    ),
    ("POST", "/compact", "POST /compact"),
];

fn call(addr: &str, method: &str, path: &str) -> u16 {
    let body = (method == "POST").then_some("{\"worker\":\"w\"}");
    client::request(addr, method, path, &[("x-worker", "w".to_string())], body)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
        .status
}

#[test]
fn every_route_is_gated_and_labelled() {
    // Bind replays the journal before it listens, so a fresh server has no
    // unready window: no route answers 503, the readiness probe included.
    let server = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            log_filter: Some(LogFilter::off()),
            ..ServiceConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr_string();
    for (method, path, _) in ROUTES {
        assert_ne!(call(&addr, method, path), 503, "{method} {path}");
    }
    assert_eq!(call(&addr, "GET", "/nope"), 404, "unknown path");

    // /metrics reports exactly the 17 endpoint labels plus `other`.
    let metrics = client::get(&addr, "/metrics").expect("metrics").body;
    let labels: BTreeSet<&str> = metrics
        .lines()
        .filter_map(|line| line.strip_prefix("http_request_seconds_count{endpoint=\""))
        .filter_map(|rest| rest.split_once("\"}").map(|(label, _)| label))
        .collect();
    let mut want: BTreeSet<&str> = ROUTES.iter().map(|(_, _, label)| *label).collect();
    want.insert("other");
    assert_eq!(labels, want, "{metrics}");
    server.stop();
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tats_server_surface_{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn trace_log_lines(path: &PathBuf) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("trace log")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn trace_log_holds_transition_and_request_spans_once_across_restart() {
    const TRACE_ID: u64 = 0x5eed_0000_0000_0b0b;
    let journal = temp_path("trace_journal");
    let trace_log = temp_path("trace_log");
    let config = ServiceConfig {
        lease_ttl_ms: 2_000,
        journal: Some(journal.clone()),
        trace_log: Some(trace_log.clone()),
        log_filter: Some(LogFilter::off()),
        ..ServiceConfig::default()
    };
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    let spec = CampaignSpec {
        benchmarks: vec![Benchmark::Bm1],
        flows: vec![FlowKind::Platform],
        policies: vec![Policy::Baseline, Policy::ThermalAware],
        solvers: vec![None],
        seeds: vec![0],
        grid_resolution: (16, 16),
        effort: Effort::Fast,
    };
    let body = JsonValue::object(vec![
        ("spec".to_string(), spec.to_json()),
        ("shards".to_string(), JsonValue::from(2usize)),
    ])
    .to_json();
    let started = Instant::now();
    let submitted = client::request(
        &addr,
        "POST",
        "/jobs",
        &[("x-trace-id", id_hex(TRACE_ID))],
        Some(&body),
    )
    .and_then(client::expect_ok)
    .expect("traced submit");
    let job = JsonValue::parse(&submitted.body)
        .expect("submit response")
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string();
    run_worker(
        &addr,
        &WorkerConfig {
            name: "trace-log-w1".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("drain");
    let job_wall_us = started.elapsed().as_micros() as u64;
    let stream = client::get(&addr, &format!("/jobs/{job}/spans"))
        .expect("spans")
        .body;
    // A `LogFilter::off()` server appends nothing to its log ring, even
    // through a drained job.
    let logs = client::get(&addr, "/logs").expect("logs");
    assert_eq!(logs.header("x-next-from"), Some("0"));
    assert!(logs.body.is_empty());
    server.abort();

    let first = trace_log_lines(&trace_log);
    let spans: Vec<SpanEvent> = first
        .iter()
        .map(|line| SpanEvent::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}")))
        .collect();
    assert!(spans.iter().all(|span| span.trace_id == TRACE_ID));
    // The job's whole merged stream — transition spans, worker batches and
    // the closing campaign span — reached the file.
    let on_disk: BTreeSet<&str> = first.iter().map(String::as_str).collect();
    for line in stream.lines() {
        assert!(on_disk.contains(line), "missing from the trace log: {line}");
    }
    let names: BTreeSet<&str> = spans.iter().map(|span| span.name.as_str()).collect();
    for name in ["submit", "lease", "ingest", "done", "campaign"] {
        assert!(names.contains(name), "no {name} span in {names:?}");
    }
    // The campaign span runs from submit to the last done on the server's
    // monotonic clock in whole milliseconds, so it cannot outlast the
    // submit-to-drain wall measured around it by a millisecond.
    let campaign = spans.iter().find(|span| span.name == "campaign");
    let campaign_us = campaign.map_or(0, |span| span.end_us - span.start_us);
    assert!(
        campaign_us < job_wall_us + 1_000,
        "campaign span {campaign_us} us vs measured wall {job_wall_us} us"
    );
    // One request span per request that carried the trace id: the submit
    // and the worker's record and done posts, named by endpoint label and
    // parented to the campaign root.
    let root = SpanIdGen::derive(TRACE_ID, "campaign");
    for label in [
        "POST /jobs",
        "POST /jobs/{id}/shards/{i}/records",
        "POST /jobs/{id}/shards/{i}/done",
    ] {
        let request = spans
            .iter()
            .find(|span| span.name == label)
            .unwrap_or_else(|| panic!("no request span named {label}"));
        assert_eq!(request.kind, SpanKind::Server);
        assert_eq!(request.parent_id, Some(root));
        assert_eq!(
            request.attrs.get("method").map(String::as_str),
            Some("POST")
        );
        assert!(request.attrs.contains_key("status"), "{request:?}");
    }

    // A restart on the same journal regenerates the job's spans by replay;
    // none of them is appended a second time.
    let server = Service::bind(&addr, config).expect("rebind");
    assert_eq!(call(&addr, "GET", "/readyz"), 200);
    let replayed = client::get(&addr, &format!("/jobs/{job}/spans"))
        .expect("spans")
        .body;
    assert_eq!(replayed, stream, "replay regenerates the stream");
    server.stop();
    assert_eq!(trace_log_lines(&trace_log), first);
    let ids: BTreeSet<u64> = spans.iter().map(|span| span.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "a span id repeats in the trace log");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&trace_log);
}
